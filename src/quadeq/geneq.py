"""Combinatorial generalized equations and the entire-transformation process.

A generalized equation is an interval encoding of a word-equation system:
boundaries 1..s cut a line into items h_1..h_{s-1}; bases cover intervals and
come in dual pairs (their oriented words must agree), constant bases pin an
item to an alphabet letter.  Boundary connections assert that a boundary on a
base corresponds to a boundary on its dual (equal oriented offsets).

The elementary transformations (cut, transfer, matched-pair removal, lone
removal, boundary introduction) rewrite these objects while preserving the
solution set through explicit carriers.  The entire transformation repeatedly
ties all boundaries of the longest base starting at 1, transfers everything
it covers onto its dual, and deletes the consumed prefix, terminating when
the first item is pinned by a constant base.

A solution is one letter tuple cut at an offset for every boundary.  Each
boundary move is one map, stated once (``_cut`` deletes boundaries, ``_merge``
contracts an item, ``_split`` makes room for a boundary): ``_renumber`` applies
it to the equation and ``GenEqSolution.moved`` to the solution.
``_drop_pair`` is the only code that removes a dual pair with its ties.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Callable, Collection, Iterable, Mapping, Sequence

from .equations import Equation, EquationSystem, header_lines
from .words import Generator, Word, substitute

# The search mode of ``entire_transform`` gives up after this many nodes
# (calls and transfers).
_SEARCH_NODES = 10_000


class GenEqError(ValueError):
    pass


class UnsupportedCase(GenEqError):
    """A configuration outside the quadratic corpus this module supports."""


@dataclass(frozen=True)
class Base:
    name: str
    lo: int
    hi: int
    eps: int
    dual: str | None = None        # None marks a constant base
    label: Generator | None = None

    def __post_init__(self):
        if not (0 < self.lo < self.hi):
            raise GenEqError(f"base {self.name}: bad span [{self.lo},{self.hi}]")
        if self.eps not in (1, -1):
            raise GenEqError(f"base {self.name}: bad sign")
        if (self.dual is None) != (self.label is not None):
            raise GenEqError(f"base {self.name}: constant bases carry labels")

    def on(self, p: int) -> bool:
        return self.lo <= p <= self.hi


@dataclass(frozen=True)
class GenEq:
    gens: tuple[str, ...]
    nbound: int
    bases: tuple[Base, ...]
    connections: tuple[tuple[int, str, int], ...]  # (p on base, base, q on dual)
    rho: int  # first boundary of the constant section

    def __post_init__(self):
        names = [b.name for b in self.bases]
        if len(set(names)) != len(names):
            raise GenEqError("duplicate base names")
        by = {b.name: b for b in self.bases}
        constant_spans = set()
        for b in self.bases:
            if b.hi > self.nbound:
                raise GenEqError(f"base {b.name} exceeds boundary range")
            if b.dual is not None:
                d = by.get(b.dual)
                if d is None or d.dual != b.name:
                    raise GenEqError(f"base {b.name}: dual involution broken")
                continue
            if b.lo < self.rho:
                raise GenEqError(f"constant base {b.name} must lie past rho")
            if (b.lo, b.hi) in constant_spans:
                raise GenEqError(f"constant base {b.name} repeats another's endpoints")
            constant_spans.add((b.lo, b.hi))
        for p, name, q in self.connections:
            b = by.get(name)
            if b is None or b.dual is None:
                raise GenEqError(f"connection references bad base {name}")
            if not b.on(p) or not by[b.dual].on(q):
                raise GenEqError(f"connection ({p},{name},{q}) off the base")

    # --- helpers ---------------------------------------------------------------

    def base(self, name: str) -> Base:
        for b in self.bases:
            if b.name == name:
                return b
        raise GenEqError(f"no base named {name}")

    def dual_of(self, name: str) -> Base:
        return self.base(self.base(name).dual)

    def items(self) -> range:
        return range(1, self.nbound)

    def coverage(self, j: int) -> int:
        """gamma(j): non-constant bases covering item h_j."""
        return sum(1 for b in self.bases if b.dual is not None and b.lo <= j < b.hi)

    def is_quadratic(self) -> bool:
        return all(self.coverage(j) <= 2 for j in self.items())

    def tied(self, name: str, p: int) -> int | None:
        for pp, nn, qq in self.connections:
            if nn == name and pp == p:
                return qq
        return None

    def nonconstant_bases(self) -> list[Base]:
        return [b for b in self.bases if b.dual is not None]

    def constant_bases(self) -> list[Base]:
        return [b for b in self.bases if b.dual is None]

    def canonical_text(self) -> str:
        lines = [f"bounds {self.nbound} rho {self.rho} gens {' '.join(self.gens)}"]
        for b in sorted(self.bases, key=lambda b: b.name):
            if b.dual is not None:
                lines.append(f"base {b.name} [{b.lo},{b.hi}] eps {b.eps} dual {b.dual}")
            else:
                g = b.label
                lab = self.gens[g.sym] + ("" if g.sign > 0 else "^-1")
                lines.append(f"const {b.name} [{b.lo},{b.hi}] label {lab}")
        for p, n, q in sorted(self.connections):
            lines.append(f"tie {p} {n} {q}")
        return "\n".join(lines) + "\n"


# --- solutions ---------------------------------------------------------------------


@dataclass(frozen=True)
class GenEqSolution:
    """Item values: item h_j is ``letters[at[j]:at[j+1]]``, so ``at`` holds
    the offset of every boundary (``at[0] == at[1] == 0`` pads the index).
    Solutions are graphical: the concatenation along any base must be reduced
    as written (no cancellation), the classical convention that makes
    boundary positions meaningful."""

    letters: tuple[Generator, ...]
    at: tuple[int, ...]

    def item(self, j: int) -> Word:
        return Word(self.letters[self.at[j] : self.at[j + 1]])

    def value(self, b: Base) -> Word:
        w = Word(self.letters[self.at[b.lo] : self.at[b.hi]])
        return w if b.eps == 1 else w.inverse()

    def offset(self, b: Base, p: int) -> int:
        return self.at[p] - self.at[b.lo] if b.eps == 1 else self.at[b.hi] - self.at[p]

    def moved(self, mv: Callable[[int], int | None], new: int | None = None) -> GenEqSolution:
        """The solution after the boundary map ``mv``: kept boundaries keep
        their positions, the boundary ``mv`` makes room for sits at ``new``,
        and letters before the first or past the last boundary are dropped.
        A merged item must be empty."""
        at = [new] * (mv(len(self.at) - 1) + 1)
        for x, a in enumerate(self.at):
            if mv(x) is not None:
                at[mv(x)] = a
        at[0] = at[1]
        return GenEqSolution(self.letters[at[1] : at[-1]], tuple(a - at[1] for a in at))

    def verify(self, geneq: GenEq) -> bool:
        at = self.at
        if len(at) != geneq.nbound + 1 or list(at) != sorted(at) or at[-1] != len(self.letters):
            return False
        for b in geneq.bases:
            span = self.letters[at[b.lo] : at[b.hi]]
            if len(Word(span)) != len(span):
                return False
        for b in geneq.nonconstant_bases():
            if self.value(b) != self.value(geneq.dual_of(b.name)):
                return False
        for c in geneq.constant_bases():
            if self.value(c) != Word((c.label,)):
                return False
        for p, name, q in geneq.connections:
            b = geneq.base(name)
            if self.offset(b, p) != self.offset(geneq.dual_of(name), q):
                return False
        return True


# --- construction from a system ------------------------------------------------------


@dataclass(frozen=True)
class GenEqBuild:
    geneq: GenEq
    system: EquationSystem
    # the letter each item reads: equation letters, then the constant twins
    letters: dict[int, Generator]

    def push(self, assignment: Mapping[str, Word]) -> GenEqSolution:
        """System solution -> generalized-equation solution.

        Raises when the assignment is not cancellation-free along some
        equation side: such solutions have no graphical interval reading.
        """
        amap = {self.system.var_sym(n): w for n, w in assignment.items()}
        letters: list[Generator] = []
        at = [0, 0]
        for letter in self.letters.values():
            if letter.sym < self.system.n_constants:
                letters.append(letter)
            else:
                v = amap[letter.sym]
                letters.extend((v if letter.sign > 0 else v.inverse()).letters)
            at.append(len(letters))
        sol = GenEqSolution(tuple(letters), tuple(at))
        if not sol.verify(self.geneq):
            raise GenEqError("assignment does not read graphically on the intervals")
        return sol

    def pull(self, sol: GenEqSolution) -> dict[str, Word]:
        """Generalized-equation solution -> system assignment, read off each
        variable's first item."""
        out: dict[str, Word] = {}
        for j, g in self.letters.items():
            if g.sym >= self.system.n_constants:
                v = sol.item(j)
                out.setdefault(self.system.var_name(g.sym), v if g.sign > 0 else v.inverse())
        return out


def _halves(w: Word) -> tuple[Word, Word]:
    k = (len(w) + 1) // 2
    return w.subword(0, k), w.subword(k, len(w)).inverse()


def from_system(system: EquationSystem) -> GenEqBuild:
    """Interval encoding of a system, the reverse of reading the equations.

    One item per letter of every equation side; relators are split into two
    halves.  Dual pairs cover (a) the two sides of each equation, (b) the
    occurrences of each repeated variable, (c) each constant occurrence and
    its twin item past rho, where a constant base pins the twin.
    """
    # normalize until nothing changes: a one-letter variable relator binds
    # that variable to 1, a longer relator becomes its two halves, empty
    # equations drop out
    equations = list(system.equations)
    forced: dict[int, Word] = {}
    while True:
        nxt: list[Equation] = []
        for eq in equations:
            lhs = substitute(eq.lhs, forced)
            rhs = substitute(eq.rhs, forced)
            if len(lhs) and len(rhs):
                nxt.append(Equation(lhs, rhs))
                continue
            rel = lhs if len(lhs) else rhs
            if len(rel) == 1 and rel[0].sym < system.n_constants:
                raise GenEqError("system contains a nontrivial constant relator")
            if len(rel) == 1:
                forced[rel[0].sym] = Word()
            elif len(rel):
                nxt.append(Equation(*_halves(rel)))
        if nxt == equations:
            break
        equations = nxt

    norm = EquationSystem(system.gens, system.variables, tuple(equations))
    nc = norm.n_constants

    # item h_p reads letters[p - 1]: the equation sides, then the constant twins
    letters: list[Generator] = []
    bases: list[Base] = []
    for e, eq in enumerate(norm.equations, 1):
        lo = len(letters) + 1
        letters.extend(eq.lhs)
        mid = len(letters) + 1
        letters.extend(eq.rhs)
        bases.append(Base(f"s{e}", lo, mid, 1, dual=f"s{e}*"))
        bases.append(Base(f"s{e}*", mid, len(letters) + 1, 1, dual=f"s{e}"))
    rho = len(letters) + 1

    occurrences: dict[int, list[int]] = {}
    for p, g in enumerate(letters, 1):
        if g.sym >= nc:
            occurrences.setdefault(g.sym, []).append(p)
    pairs = [pair for _, ps in sorted(occurrences.items()) for pair in zip(ps, ps[1:])]
    for v, (p1, p2) in enumerate(pairs, 1):
        bases.append(Base(f"v{v}", p1, p1 + 1, letters[p1 - 1].sign, dual=f"v{v}*"))
        bases.append(Base(f"v{v}*", p2, p2 + 1, letters[p2 - 1].sign, dual=f"v{v}"))

    constants = [(p, g) for p, g in enumerate(letters, 1) if g.sym < nc]
    for c, (p, g) in enumerate(constants, 1):
        twin = rho + c - 1
        bases.append(Base(f"c{c}", p, p + 1, g.sign, dual=f"c{c}*"))
        bases.append(Base(f"c{c}*", twin, twin + 1, 1, dual=f"c{c}"))
        bases.append(Base(f"k{c}", twin, twin + 1, 1, label=Generator(g.sym, 1)))
        letters.append(Generator(g.sym, 1))

    ge = GenEq(gens=norm.gens, nbound=len(letters) + 1, bases=tuple(bases), connections=(),
               rho=rho)
    return GenEqBuild(geneq=ge, system=norm, letters=dict(enumerate(letters, 1)))


# --- elementary transformations --------------------------------------------------------


def _replace_base(ge: GenEq, *remove: str, add: Sequence[Base] = (),
                  connections: Iterable[tuple[int, str, int]] | None = None) -> GenEq:
    keep = tuple(b for b in ge.bases if b.name not in remove) + tuple(add)
    return GenEq(
        gens=ge.gens,
        nbound=ge.nbound,
        bases=keep,
        connections=tuple(connections) if connections is not None else ge.connections,
        rho=ge.rho,
    )


def _cut(cut: int, amount: int) -> Callable[[int], int | None]:
    """Delete boundaries cut..cut+amount-1 and renumber the rest down."""
    return lambda x: x if x < cut else None if x < cut + amount else x - amount


def _merge(j: int) -> Callable[[int], int]:
    """Contract item h_j: boundary j+1 merges into j."""
    return lambda x: x if x <= j else x - 1


def _split(after: int) -> Callable[[int], int]:
    """Make room for one boundary right after ``after`` (splitting h_after)."""
    return lambda x: x if x <= after else x + 1


def _renumber(ge: GenEq, mv: Callable[[int], int | None], drop: Collection[str] = ()) -> GenEq:
    """Map every base end, every tie, rho and the last boundary through one
    of the maps above.  The bases named in ``drop`` go with their ties, and
    ties that coincide are kept once."""

    def to(x: int) -> int:
        y = mv(x)
        if y is None:
            raise GenEqError("reference into deleted boundaries")
        return y

    conns: list[tuple[int, str, int]] = []
    for p, n, q in ge.connections:
        c = (to(p), n, to(q))
        if n not in drop and c not in conns:
            conns.append(c)
    return GenEq(
        gens=ge.gens,
        nbound=to(ge.nbound),
        bases=tuple(
            replace(b, lo=to(b.lo), hi=to(b.hi)) for b in ge.bases if b.name not in drop
        ),
        connections=tuple(conns),
        rho=to(ge.rho),
    )


def _drop_pair(ge: GenEq, name: str) -> GenEq:
    """Remove base ``name``, its dual and their ties."""
    pair = (name, ge.base(name).dual)
    conns = [c for c in ge.connections if c[1] not in pair]
    return _replace_base(ge, *pair, connections=conns)


def _oriented_parts(b: Base, p: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Split spans of b at p: (oriented-prefix span, oriented-suffix span)."""
    if b.eps == 1:
        return (b.lo, p), (p, b.hi)
    return (p, b.hi), (b.lo, p)


def et1_cut(ge: GenEq, name: str, p: int) -> GenEq:
    """Cut a base and its dual at a connected boundary pair."""
    b = ge.base(name)
    if not (b.lo < p < b.hi):
        raise GenEqError(f"boundary {p} is not internal to {name}")
    q = ge.tied(name, p)
    if q is None:
        raise GenEqError(f"boundary {p} is not tied on {name}")
    d = ge.dual_of(name)
    if not (d.lo < q < d.hi):
        raise GenEqError(f"tied boundary {q} is not internal to {d.name}")
    # each side splits into its oriented prefix x.1 and suffix x.2
    parts: dict[str, tuple[Base, Base]] = {}
    for x, at in ((b, p), (d, q)):
        prefix, suffix = _oriented_parts(x, at)
        parts[x.name] = (Base(f"{x.name}.1", *prefix, x.eps, dual=f"{x.dual}.1"),
                         Base(f"{x.name}.2", *suffix, x.eps, dual=f"{x.dual}.2"))
    conns: list[tuple[int, str, int]] = []
    for pp, nn, qq in ge.connections:
        if (pp, nn, qq) in ((p, name, q), (q, d.name, p)):
            continue
        if nn in parts:
            # a tie at the cut goes to the prefix
            nn = next(part.name for part in parts[nn] if part.on(pp))
        conns.append((pp, nn, qq))
    return _replace_base(ge, name, d.name, add=parts[name] + parts[d.name], connections=conns)


def et2_transfer(ge: GenEq, carrier: str, name: str) -> GenEq:
    """Transfer a base contained in ``carrier`` onto the carrier's dual."""
    lam = ge.base(carrier)
    mu = ge.base(name)
    if mu.dual is None:
        raise GenEqError("cannot transfer a constant base")
    if name in (carrier, lam.dual):
        raise GenEqError("cannot transfer a base onto itself")
    if not (lam.lo <= mu.lo and mu.hi <= lam.hi):
        raise GenEqError(f"{name} is not contained in {carrier}")

    def onto(x: int) -> int:
        """The carrier's dual boundary tied to boundary x of ``name``."""
        t = ge.tied(carrier, x)
        if t is None:
            raise GenEqError(f"boundary {x} of {name} is not tied on {carrier}")
        return t

    new_lo, new_hi = sorted((onto(mu.lo), onto(mu.hi)))
    if new_lo == new_hi:
        raise GenEqError("transfer would collapse the base to zero length")
    flip = lam.eps * ge.dual_of(carrier).eps
    moved = replace(mu, lo=new_lo, hi=new_hi, eps=mu.eps * flip)
    conns: list[tuple[int, str, int]] = []
    for pp, nn, qq in ge.connections:
        if nn == name:
            pp = onto(pp)
        elif nn == mu.dual:
            qq = onto(qq)
        conns.append((pp, nn, qq))
    return _replace_base(ge, name, add=[moved], connections=conns)


def et3_remove_matched(ge: GenEq, name: str) -> GenEq:
    b = ge.base(name)
    d = ge.dual_of(name)
    if (b.lo, b.hi, b.eps) != (d.lo, d.hi, d.eps):
        raise GenEqError(f"{name} and {d.name} are not a matched pair")
    return _drop_pair(ge, name)


def et4_remove_lone(ge: GenEq, name: str) -> GenEq:
    """Remove a pair whose base intersects nothing, merging its span."""
    b = ge.base(name)
    if b.dual is None:
        raise GenEqError("constant bases are not removed this way")
    for other in ge.bases:
        if other.name in (b.name,):
            continue
        for j in range(b.lo + 1, b.hi):
            if other.on(j):
                raise GenEqError(f"{name} intersects {other.name}")
    return _renumber(_drop_pair(ge, name), _cut(b.lo + 1, b.hi - b.lo - 1))


def et5_connect(ge: GenEq, name: str, p: int, q: int) -> GenEq:
    """Add the boundary connection (p, name, q)."""
    b = ge.base(name)
    d = ge.dual_of(name)
    if not b.on(p) or not d.on(q):
        raise GenEqError("connection endpoints must lie on the bases")
    conns = list(ge.connections)
    if (p, name, q) not in conns:
        conns.append((p, name, q))
    return _replace_base(ge, connections=conns)


def et5_insert(ge: GenEq, after: int) -> GenEq:
    """Insert a new boundary right after ``after`` (splitting item h_after)."""
    if not (1 <= after < ge.nbound):
        raise GenEqError("insertion point must split an existing item")
    return _renumber(ge, _split(after))

# --- the entire transformation -----------------------------------------------------


@dataclass(frozen=True)
class TraceOp:
    op: str
    args: tuple

    def render(self) -> str:
        return " ".join([self.op] + [str(a) for a in self.args])


def contract_item(ge: GenEq, j: int) -> GenEq:
    """Delete item h_j (its boundaries merge); bases collapsing to zero
    length are removed together with their duals."""
    if not (1 <= j < ge.nbound):
        raise GenEqError(f"no item {j}")
    mv = _merge(j)
    dead = {n for b in ge.bases if mv(b.lo) == mv(b.hi) for n in (b.name, b.dual) if n}
    return _renumber(ge, mv, drop=dead)


def _cut_drop(ge: GenEq, name: str, j: int) -> GenEq:
    """Cut ``name`` and its dual at boundary j, then drop the prefix pair and
    the items before j."""
    return _renumber(_drop_pair(et1_cut(ge, name, j), f"{name}.1"), _cut(1, j - 1))


def _drop_all(ge: GenEq, name: str) -> GenEq:
    """Drop the pair ``name`` and every item before its right end."""
    return _renumber(_drop_pair(ge, name), _cut(1, ge.base(name).hi - 1))


# each trace op: its arguments (INT a boundary or item, NAME a base) and its move
_OPS: dict[str, tuple[str, Callable[..., GenEq]]] = {
    "contract": ("INT", contract_item),
    "match": ("NAME", et3_remove_matched),
    "tie": ("NAME INT INT", et5_connect),
    "insert": ("INT", et5_insert),
    "transfer": ("NAME NAME", et2_transfer),
    "cutdrop": ("NAME INT", _cut_drop),
    "dropall": ("NAME", _drop_all),
    "terminal": ("", lambda ge: ge),
}


def apply_trace_op(ge: GenEq, op: TraceOp) -> GenEq:
    if op.op not in _OPS:
        raise GenEqError(f"unknown trace op {op.op!r}")
    return _OPS[op.op][1](ge, *op.args)


def replay_trace(ge: GenEq, trace: Sequence[TraceOp]) -> GenEq:
    for op in trace:
        ge = apply_trace_op(ge, op)
    return ge


def render_trace(trace: Sequence[TraceOp]) -> str:
    return "\n".join(op.render() for op in trace) + "\n"


def parse_trace(text: str) -> list[TraceOp]:
    """Read the format ``render_trace`` writes; every line must be a known op
    with arguments of the right count and types."""
    out = []
    for lineno, _, line in header_lines(text):
        op, *toks = line.split()
        if op not in _OPS:
            raise GenEqError(f"trace line {lineno}: unknown op {op!r}")
        kinds = _OPS[op][0].split()
        if len(toks) != len(kinds) or any(
            (re.fullmatch(r"-?[0-9]+", t) is not None) != (k == "INT") for k, t in zip(kinds, toks)
        ):
            usage = " ".join([op, *kinds])
            raise GenEqError(f"trace line {lineno}: expected '{usage}', got '{line}'")
        out.append(TraceOp(op, tuple(int(t) if k == "INT" else t for k, t in zip(kinds, toks))))
    return out


@dataclass
class EntireTransformResult:
    terminal: GenEq
    trace: list[TraceOp]
    rounds: int
    status: str  # "terminal" | "budget" | "repeat" | "exhausted"
    solution: GenEqSolution | None = None


def _tie_with_solution(
    ge: GenEq, sol: GenEqSolution, name: str, p: int, trace: list[TraceOp]
) -> tuple[GenEq, GenEqSolution]:
    """Tie boundary p on base ``name`` to the boundary at the same oriented
    offset on the dual, or split the one item that holds that position."""
    d = ge.dual_of(name)
    target = sol.offset(ge.base(name), p)
    pos = sol.at[d.lo] + target if d.eps == 1 else sol.at[d.hi] - target
    # offsets increase strictly once empty items are contracted
    q = bisect_right(sol.at, pos, d.lo, d.hi + 1) - 1
    if sol.at[q] < pos:
        return _insert_tie(ge, name, p, q, trace), sol.moved(_split(q), pos)
    ge = et5_connect(ge, name, p, q)
    trace.append(TraceOp("tie", (name, p, q)))
    return ge, sol


def _insert_tie(ge: GenEq, name: str, p: int, j: int, trace: list[TraceOp]) -> GenEq:
    """Split item h_j and tie boundary p on base ``name`` to the new boundary."""
    pp = _split(j)(p)
    ge = et5_connect(et5_insert(ge, j), name, pp, j + 1)
    trace.extend([TraceOp("insert", (j,)), TraceOp("tie", (name, pp, j + 1))])
    return ge


def entire_transform(
    ge: GenEq, budget: int, solution: GenEqSolution | None = None
) -> EntireTransformResult:
    """Run the rewriting process for ``budget`` rounds.

    A round drops matched pairs, ties every boundary of the longest base
    starting at 1, transfers everything it covers onto its dual and deletes
    the consumed prefix.  Only tie placement depends on the mode.  With a
    solution, ties follow the solution's offsets, the solution is carried
    through every step and re-checked after each round; unsupported
    configurations raise ``UnsupportedCase``.  Without one, ties are searched
    depth-first over the dual's boundaries left to right, then over
    splitting insertions, and a branch that hits an error is pruned.

    Terminates when the first item is pinned by a constant base (or nothing
    non-constant remains).  A repeated combinatorial equation aborts the
    branch: a minimal solution never revisits a state.
    """
    if not ge.is_quadratic():
        raise GenEqError("entire transformation expects a quadratic equation")
    if solution is None:
        return _entire_transform_search(ge, budget)
    if not solution.verify(ge):
        raise GenEqError("the provided solution does not satisfy the equation")

    trace: list[TraceOp] = []
    sol = solution
    # positive-solution reduction: contract items the solution leaves empty,
    # so every boundary offset is strictly increasing afterwards
    while True:
        j = next((j for j in ge.items() if sol.at[j] == sol.at[j + 1]), None)
        if j is None:
            break
        ge = contract_item(ge, j)
        trace.append(TraceOp("contract", (j,)))
        sol = sol.moved(_merge(j))
    if not sol.verify(ge):
        raise AssertionError("internal: solution lost during contraction")

    seen = {ge.canonical_text()}
    for rounds in range(1, budget + 1):
        ge, sol, done = _entire_round(ge, sol, trace)
        if not sol.verify(ge):
            raise AssertionError("internal: solution lost while rewriting")
        if done:
            trace.append(TraceOp("terminal", ()))
            return EntireTransformResult(ge, trace, rounds, "terminal", sol)
        key = ge.canonical_text()
        if key in seen:
            return EntireTransformResult(ge, trace, rounds, "repeat", sol)
        seen.add(key)
    return EntireTransformResult(ge, trace, budget, "budget", sol)


def _terminal(ge: GenEq) -> bool:
    return not ge.nonconstant_bases() or any(c.lo == 1 for c in ge.constant_bases())


def _drop_matched(ge: GenEq, trace: list[TraceOp]) -> GenEq:
    """Remove matched pairs: they carry no information."""
    changed = True
    while changed:
        changed = False
        for b in ge.nonconstant_bases():
            d = ge.dual_of(b.name)
            if (b.lo, b.hi, b.eps) == (d.lo, d.hi, d.eps):
                ge = et3_remove_matched(ge, b.name)
                trace.append(TraceOp("match", (b.name,)))
                changed = True
                break
    return ge


def _leading_base(ge: GenEq) -> Base:
    """The longest base starting at 1, whose dual must not lie inside it."""
    starters = [b for b in ge.nonconstant_bases() if b.lo == 1]
    if not starters:
        raise UnsupportedCase("item 1 is covered by no base")
    mu = max(starters, key=lambda b: (b.hi - b.lo, b.name))
    d = ge.dual_of(mu.name)
    if mu.lo <= d.lo and d.hi <= mu.hi:
        raise UnsupportedCase("dual overlaps its own base (periodic case)")
    return mu


def _untied(ge: GenEq, name: str) -> list[int]:
    b = ge.base(name)
    return [p for p in range(b.lo, b.hi + 1) if ge.tied(name, p) is None]


def _finish_round(
    ge: GenEq, sol: GenEqSolution | None, mu: str, trace: list[TraceOp],
    tick: Callable[[], None] | None = None,
) -> tuple[GenEq, GenEqSolution | None]:
    """Transfer everything under the fully tied base ``mu`` (except its dual)
    onto the dual, then cut at the first doubly covered item and drop the
    consumed prefix; a carried solution loses the dropped items.

    A searched tie can send two boundaries of ``mu`` to one, and then a
    transfer can put a base back under ``mu`` forever, so the search passes
    ``tick`` to count each transfer against its node budget."""
    while True:
        mu_now = ge.base(mu)
        inside = [
            b
            for b in ge.nonconstant_bases()
            if b.name not in (mu, mu_now.dual)
            and mu_now.lo <= b.lo
            and b.hi <= mu_now.hi
        ]
        if not inside:
            break
        if tick is not None:
            tick()
        ge = et2_transfer(ge, mu, inside[0].name)
        trace.append(TraceOp("transfer", (mu, inside[0].name)))

    mu_now = ge.base(mu)
    j = next((item for item in range(1, mu_now.hi) if ge.coverage(item) >= 2), None)
    if j == 1:
        raise UnsupportedCase("no progress: item 1 is still doubly covered")
    # with nothing else under mu, remove the pair and its span
    op = TraceOp("dropall", (mu,)) if j is None else TraceOp("cutdrop", (mu, j))
    trace.append(op)
    new = apply_trace_op(ge, op)
    if sol is not None:
        sol = sol.moved(_cut(1, ge.nbound - new.nbound))
    return new, sol


def _entire_round(
    ge: GenEq, sol: GenEqSolution, trace: list[TraceOp]
) -> tuple[GenEq, GenEqSolution, bool]:
    ge = _drop_matched(ge, trace)
    if _terminal(ge):
        return ge, sol, True
    mu = _leading_base(ge).name
    # insertions can widen spans, so rescan until nothing is untied
    for _ in range(10_000):
        untied = _untied(ge, mu)
        if not untied:
            break
        ge, sol = _tie_with_solution(ge, sol, mu, untied[0], trace)
    else:
        raise AssertionError("internal: tie loop did not settle")
    ge, sol = _finish_round(ge, sol, mu, trace)
    return ge, sol, _terminal(ge)


class _OutOfNodes(Exception):
    pass


def _entire_transform_search(ge: GenEq, budget: int) -> EntireTransformResult:
    """Depth-first tie search: enumerate placements left to right.

    The round budget alone does not bound the search, so it also gives up
    after ``_SEARCH_NODES`` nodes, counting each call and each transfer.  A
    search that finds no terminal equation returns the deepest branch it
    reached (the first to complete the most rounds), with status ``budget``
    when the round or node budget cut the tree and ``exhausted`` when every
    branch was pruned.
    """
    seen: set[str] = set()
    nodes = 0
    cut = False
    deepest = EntireTransformResult(ge, [], -1, "budget")

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > _SEARCH_NODES:
            raise _OutOfNodes

    # every call owns ``trace``: branches pass extended copies
    def rec(g: GenEq, trace: list[TraceOp], rounds: int) -> EntireTransformResult | None:
        nonlocal cut, deepest
        tick()
        g = _drop_matched(g, trace)
        if rounds > deepest.rounds:
            deepest = EntireTransformResult(g, list(trace), rounds, "budget")
        if _terminal(g):
            trace.append(TraceOp("terminal", ()))
            return EntireTransformResult(g, trace, rounds, "terminal")
        if rounds >= budget:
            cut = True
            return None
        key = g.canonical_text()
        if key in seen:
            return None
        seen.add(key)
        try:
            mu = _leading_base(g)
        except UnsupportedCase:
            return None
        untied = _untied(g, mu.name)
        if untied:
            p = untied[0]
            d = g.dual_of(mu.name)
            # existing boundaries left to right, then splitting insertions
            for q in range(d.lo, d.hi + 1):
                g2 = et5_connect(g, mu.name, p, q)
                out = rec(g2, trace + [TraceOp("tie", (mu.name, p, q))], rounds)
                if out is not None:
                    return out
            for j in range(d.lo, d.hi):
                branch = list(trace)
                out = rec(_insert_tie(g, mu.name, p, j, branch), branch, rounds)
                if out is not None:
                    return out
            return None
        # an error in this round or in any deeper one prunes this branch
        try:
            g, _ = _finish_round(g, None, mu.name, trace, tick)
            return rec(g, trace, rounds + 1)
        except GenEqError:
            return None

    try:
        return rec(ge, [], 0) or replace(deepest, status="budget" if cut else "exhausted")
    except _OutOfNodes:
        return deepest
