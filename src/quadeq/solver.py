"""Decision procedure for quadratic systems over free groups.

Pipeline: decouple the system (eliminating variables shared between two
equations), normalize each surviving equation to standard form, then decide
solvability by searching cancellation diagrams.  A diagram glues the letters
of the coefficient discs in pairs: a letter to an inverse letter, and in a
non-orientable form also to an equal letter, glued with a flip.  The search
builds the surface one gluing at a time (Culler, "Using surfaces to solve
equations in free groups", Topology 20, 1981).  A partial diagram is a
surface with boundary; its open clusters (components with unglued letters)
are each a multiset of boundary cycles, the cyclic words of unglued letters.
Gluing the pivot letter p of a cycle p A to a partner q:

    q on the same cycle, p A q B:    inverse letters: cycles A and B
                                     equal letters:   cycle A B^-1, a crosscap
    q on another cycle q B of the    inverse letters: cycle A B, a handle
      same cluster:                  equal letters:   cycle A B^-1, two crosscaps
    q in another cluster:            the clusters merge into A B; for equal
                                     letters the other cluster is inverted first

Empty cycles are capped off, and a cluster without cycles is a closed
component.  Its cost in handles/crosscaps is exact:

    orientable form:      cost(component) = orientable genus h
    non-orientable form:  sphere with coherent disc orientations      -> 0
                          sphere needing a disc flip                  -> 1
                          orientable genus h >= 1                     -> 2h + 1
                          non-orientable genus k                      -> k

The equation is solvable at genus g iff some diagram has total cost <= g.
SAT answers carry witnesses found by bounded search on the standard form
(meeting in the middle for genus-0 orientable forms) and transported back;
UNSAT is a complete verdict (there are finitely many diagrams), so it is not
bound-limited.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .equations import EquationSystem, Equation
from .oracle import SearchBound, is_satisfiable, reduced_words
from .standardize import (
    NONORIENTABLE,
    ORIENTABLE,
    StandardForm,
    standardize,
)
from .words import Generator, Word, replay, substitute


class SolverError(ValueError):
    pass


# --- cancellation diagrams ----------------------------------------------------

# What an open cluster still owes when it closes, on top of the genus already
# charged: a clean cluster (untwisted, no handle, all discs oriented alike)
# nothing, a pending one (untwisted, with a handle or a flipped disc) its last
# crosscap in a non-orientable form, a twisted one nothing.  A merge of two
# clusters has at least the larger status of the two.
_CLEAN, _PENDING, _TWISTED = 0, 1, 2


def _inverse(cycle: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([x ^ 1 for x in reversed(cycle)])


def _least_rotation(cycle: tuple[int, ...]) -> tuple[int, ...]:
    m = min(cycle)
    return min(cycle[i:] + cycle[:i] for i, x in enumerate(cycle) if x == m)


class CancellationDiagrams:
    """Least-cost search over cancellation diagrams of the coefficient discs.

    A search state is the multiset of open clusters, each a status and the
    multiset of its boundary cycles: tuples of letters packed as
    ``2*sym + (sign < 0)``.  Every disc starts as a clean cluster with one
    cycle, and each step glues a pivot letter to one of its partners by the
    rules of the module docstring.  Genus is charged as soon as it appears --
    a handle costs 1 in an orientable form and 2 in a non-orientable one, a
    crosscap 1 -- and a pending cluster pays its last crosscap when it
    closes, which adds up to the cost table.

    States are canonical: cycles by least rotation, a twisted cluster's
    cycles each up to inversion, a pending cluster up to inverting all its
    cycles, the whole state up to inverting every clean cluster at once.
    (One clean cluster alone may not be inverted: which later merges need a
    flip depends on its orientation.)  The instance keeps a table of the
    largest budget proven infeasible per state across ``solvable_within``
    calls, so rising budgets reuse it, and each call tries each distinct
    (cost, state) child once.  The pivot is a letter with the fewest
    partners, on the shortest cycle among those.
    """

    def __init__(self, coefficients: Sequence[Word], kind: str):
        for w in coefficients:
            if len(w) == 0 or not w.is_cyclically_reduced():
                raise SolverError("coefficients must be nonempty and cyclically reduced")
        self.kind = kind
        self.cycles = [tuple([2 * g.sym + (g.sign < 0) for g in w]) for w in coefficients]
        self.n = sum(map(len, self.cycles))
        self._failed: dict[tuple, int] = {}   # state -> largest budget proven infeasible
        self._forms: dict[tuple, tuple] = {}  # cycle -> least rotations of it and of its inverse
        self._mirrors: dict[tuple, tuple] = {}  # clean cluster -> the cluster inverted

    def balanced(self) -> bool:
        """Can every letter be glued?  Inverse letters pair up in an
        orientable form; any two letters of a symbol in a non-orientable one."""
        count = Counter(x for c in self.cycles for x in c)
        if self.kind == ORIENTABLE:
            return all(count[x] == count[x ^ 1] for x in count)
        return all((count[x] + count[x ^ 1]) % 2 == 0 for x in count)

    def solvable_within(self, budget: int) -> bool:
        """Does some diagram cost at most ``budget``?"""
        if self.n == 0:
            return budget >= 0
        if self.n % 2 or not self.balanced():
            return False
        orientable = self.kind == ORIENTABLE
        handle = 1 if orientable else 2
        closing = (0, 0 if orientable else 1, 0)  # by status
        failed, forms, mirrors = self._failed, self._forms, self._mirrors

        def form(c: tuple) -> tuple:
            f = forms.get(c)
            if f is None:
                f = forms[c] = (_least_rotation(c), _least_rotation(_inverse(c)))
            return f

        def cluster(status: int, cycles: list[tuple]) -> tuple:
            fs = [form(c) for c in cycles]
            if status == _TWISTED:
                return status, tuple(sorted(map(min, fs)))
            key = tuple(sorted([f[0] for f in fs]))
            if status == _PENDING:
                key = min(key, tuple(sorted([f[1] for f in fs])))
            return status, key

        def canonical(clusters: list[tuple]) -> tuple:
            state = tuple(sorted(clusters))
            if all(s != _CLEAN for s, _ in clusters):
                return state
            mirror = []
            for cl in clusters:
                if cl[0] == _CLEAN:
                    m = mirrors.get(cl)
                    if m is None:
                        m = mirrors[cl] = (_CLEAN, tuple(sorted([form(c)[1] for c in cl[1]])))
                    cl = m
                mirror.append(cl)
            return min(state, tuple(sorted(mirror)))

        def children(state: tuple, left: int):
            """(cost, state) for each gluing of the pivot that fits in ``left``."""
            count = Counter(x for _, cycles in state for c in cycles for x in c)
            if orientable:
                partners = {x: count[x ^ 1] for x in count}
            else:
                partners = {x: count[x] + count[x ^ 1] - 1 for x in count}
            least = min(partners.values())
            size = self.n + 1
            for i, (_, cycles) in enumerate(state):
                for j, c in enumerate(cycles):
                    if len(c) < size:
                        for k, x in enumerate(c):
                            if partners[x] == least:
                                size, pivot = len(c), (i, j, k)
                                break
            ci, yi, pos = pivot
            status, cycles = state[ci]
            c = cycles[yi]
            p = c[pos]
            a = c[pos + 1:] + c[:pos]  # c = p a
            for cj, (status2, cycles2) in enumerate(state):
                for yj, d in enumerate(cycles2):
                    for t, q in enumerate(d):
                        if q != p ^ 1 and (orientable or q != p):
                            continue
                        if cj == ci:
                            rest = [cl for i, cl in enumerate(state) if i != ci]
                            if yj == yi:
                                if t == pos:
                                    continue
                                u = (t - pos - 1) % len(c)
                                head, tail = a[:u], a[u + 1:]  # c = p head q tail
                                if q == p:
                                    new, st, cost = [head + _inverse(tail)], _TWISTED, 1
                                else:
                                    new, st, cost = [head, tail], status, 0
                            else:
                                b = d[t + 1:] + d[:t]  # d = q b
                                cost = handle
                                if q == p:
                                    new, st = [a + _inverse(b)], _TWISTED
                                elif orientable:
                                    new, st = [a + b], status
                                else:
                                    new, st = [a + b], max(status, _PENDING)
                            new += [e for k, e in enumerate(cycles) if k != yi and k != yj]
                        else:
                            rest = [cl for i, cl in enumerate(state) if i != ci and i != cj]
                            b = d[t + 1:] + d[:t]
                            other = [e for k, e in enumerate(cycles2) if k != yj]
                            cost = 0
                            if q == p:
                                new = [a + _inverse(b)] + list(map(_inverse, other))
                                st = max(status, status2, _PENDING)
                            else:
                                new, st = [a + b] + other, max(status, status2)
                            new += [e for k, e in enumerate(cycles) if k != yi]
                        new = [e for e in new if e]
                        if not new:
                            cost += closing[st]
                        if cost > left:
                            continue
                        if new:
                            rest.append(cluster(st, new))
                        yield cost, canonical(rest)

        def search(state: tuple, left: int) -> bool:
            if not state:
                return True
            if failed.get(state, -1) >= left:
                return False
            for cost, child in sorted(dict.fromkeys(children(state, left)), key=itemgetter(0)):
                if search(child, left - cost):
                    return True
            failed[state] = left
            return False

        return search(canonical([cluster(_CLEAN, [c]) for c in self.cycles]), budget)

    def min_genus(self, cutoff: int, start: int = 0) -> int | None:
        """Least budget in ``start..cutoff`` that some diagram fits, or None."""
        return next((g for g in range(start, cutoff + 1) if self.solvable_within(g)), None)


def _normalized_discs(form: StandardForm) -> list[Word]:
    """Cyclically reduced, nontrivial coefficient discs of a standard form.

    The equation reads prod(...) * C = 1, so the discs are C_1..C_{m-1} and
    C itself: a cancellation diagram fills in the whole left side.  Each
    conjugator absorbs the cyclic reduction of its C_j, and conjugating the
    whole equation cyclically reduces C; trivial discs are dropped.
    """
    discs = []
    for c in form.coefficients:
        core, _ = c.cyclic_reduce()
        if len(core):
            discs.append(core)
    core, _ = form.tail.cyclic_reduce()
    if len(core):
        discs.append(core)
    return discs


def form_solvable(form: StandardForm) -> bool:
    """Complete decision at the form's own genus."""
    discs = _normalized_discs(form)
    diag = CancellationDiagrams(discs, form.kind)
    return diag.solvable_within(form.genus)


# --- the solver -----------------------------------------------------------------


@dataclass(frozen=True)
class SolveResult:
    status: str  # "sat" | "unsat" | "bound_exceeded"
    witness: dict[str, Word] | None
    bound_used: int
    detail: str = ""


def default_bound(form: StandardForm) -> int:
    """The cited minimal-solution bounds: 2s orientable, 12 s^4 otherwise."""
    s = sum(len(c) for c in form.coefficients) + len(form.tail)
    if form.kind == ORIENTABLE:
        return max(1, 2 * s)
    return max(1, 12 * s ** 4)


def _decouple(system: EquationSystem) -> tuple[list[Word], list[tuple[int, Word]], bool]:
    """Eliminate variables occurring in two different relators.

    Returns (independent relators, eliminations in order, trivially_unsat).
    Each elimination (sym, expr) defines that variable in terms of later
    material; evaluate in reverse order when rebuilding witnesses.
    """
    relators = [eq.relator() for eq in system.equations]
    nc = system.n_constants
    elim: list[tuple[int, Word]] = []
    while True:
        owner: dict[int, list[int]] = {}
        for idx, r in enumerate(relators):
            for g in r:
                if g.sym >= nc:
                    owner.setdefault(g.sym, []).append(idx)
        shared = None
        for sym, idxs in owner.items():
            uniq = sorted(set(idxs))
            if len(uniq) == 2:
                shared = (sym, uniq[0], uniq[1])
                break
        if shared is None:
            break
        sym, i, j = shared
        r = relators[i]
        pos = [k for k, g in enumerate(r) if g.sym == sym]
        if len(pos) != 1:
            raise AssertionError("internal: shared variable must occur once per relator")
        k = pos[0]
        u, v = r.subword(0, k), r.subword(k + 1, len(r))
        img = u.inverse() * v.inverse()
        if r[k].sign < 0:
            img = img.inverse()
        elim.append((sym, img))
        relators[j] = substitute(relators[j], {sym: img})
        del relators[i]
    out = []
    unsat = False
    for r in relators:
        if all(g.sym < nc for g in r):
            if len(r):
                unsat = True
            continue
        out.append(r)
    return out, elim, unsat


def _witness(form: StandardForm, system: EquationSystem, bound: int) -> dict[str, Word] | None:
    """The oracle's first solution of ``system``, the standard equation of
    ``form``, at the least per-variable length ell <= bound that has one.

    A genus-0 orientable form reads z_1^-1 C_1 z_1 ... z_n^-1 C_n z_n C = 1
    and is solved by meeting in the middle: the products of the last n//2
    conjugates (times C) go into a table, in which the inverses of the
    products of the first ones are looked up.  With W the words of length
    <= ell that is about |W|^ceil(n/2) word products where the oracle
    closes |W|^(n-1) partial assignments.  The oracle's order is
    lexicographic over (z_1, ..., z_n), each in the order of W, so keeping
    the first right half per table entry and scanning the left halves in
    order finds the same solution.
    """
    for ell in range(bound + 1):
        if form.kind != ORIENTABLE or form.genus:
            found = is_satisfiable(system, SearchBound(ell))
        else:
            found = _meet_conjugates(form, system, reduced_words(system.n_constants, ell))
        if found is not None:
            return found
    return None


def _meet_conjugates(form: StandardForm, system: EquationSystem,
                     words: Sequence[Word]) -> dict[str, Word] | None:
    conj = [[z.inverse() * c * z for z in words] for c in form.coefficients]
    k = (len(conj) + 1) // 2
    table: dict[tuple, tuple[int, ...]] = {}
    for right, p in _products(conj[k:], form.tail):
        table.setdefault(p.letters, right)
    for left, p in _products(conj[:k], Word()):
        right = table.get(p.inverse().letters)
        if right is not None:
            return {name: words[i] for name, i in zip(system.variables, left + right)}
    return None


def _products(factors: list[list[Word]], tail: Word):
    """(choice, product times ``tail``) for every choice of one word from
    each list, in lexicographic order of the choices."""
    if not factors:
        yield (), tail
        return
    rest = list(_products(factors[1:], tail))
    for i, w in enumerate(factors[0]):
        for choice, p in rest:
            yield (i, *choice), w * p


def solve_quadratic(
    system: EquationSystem,
    bound: int | None = None,
) -> SolveResult:
    """Decide a quadratic system; SAT answers carry verified witnesses.

    UNSAT verdicts are complete (diagram search is finite); the bound only
    caps the witness search, defaulting to the cited free-group bounds.
    """
    if not system.is_quadratic():
        raise SolverError("system is not quadratic")
    relators, elim, unsat = _decouple(system)
    if unsat:
        return SolveResult("unsat", None, bound or 0, "constant relator is nontrivial")

    assignment: dict[int, Word] = {}
    used_bound = 0
    for rel in relators:
        rel_vars = sorted({g.sym for g in rel if g.sym >= system.n_constants})
        names = tuple(system.var_name(s) for s in rel_vars)
        remap = {s: system.n_constants + i for i, s in enumerate(rel_vars)}
        rel_local = Word(
            Generator(remap.get(g.sym, g.sym), g.sign) for g in rel
        )
        sub = EquationSystem(system.gens, names, (Equation(rel_local),))
        nz = standardize(sub)
        if not form_solvable(nz.form):
            return SolveResult("unsat", None, bound or 0, "no cancellation diagram")
        b = bound if bound is not None else default_bound(nz.form)
        used_bound = max(used_bound, b)
        found = _witness(nz.form, nz.system, b)
        if found is None:
            return SolveResult(
                "bound_exceeded", None, b,
                "diagram is solvable but no witness within the bound",
            )
        back = nz.to_original(found)
        for name, w in back.items():
            assignment[system.var_sym(name)] = w

    # eliminated variables follow from later material; free ones are 1
    assignment = replay([{sym: expr} for sym, expr in reversed(elim)], assignment,
                        system.var_syms)
    witness = {system.var_name(s): w for s, w in assignment.items()}
    if not system.check(witness):
        raise AssertionError("internal: witness failed verification")
    return SolveResult("sat", witness, bound if bound is not None else used_bound)


# --- genus of tuples ---------------------------------------------------------------


@dataclass(frozen=True)
class GenusResult:
    solvable: bool
    witness: dict[str, Word] | None


def _tuple_form(coefficients: Sequence[Word], g: int, kind: str) -> StandardForm:
    if not coefficients:
        raise SolverError("need at least the final coefficient C")
    return StandardForm(
        kind=kind,
        genus=g,
        coefficients=tuple(coefficients[:-1]),
        tail=coefficients[-1],
    )


def _genus_at(
    coefficients: Sequence[Word], g: int, kind: str, gens: tuple[str, ...],
    want_witness: bool,
) -> GenusResult:
    form = _tuple_form(coefficients, g, kind)
    if not form_solvable(form):
        return GenusResult(False, None)
    if not want_witness:
        return GenusResult(True, None)
    sysm = form.system(gens)
    sol = _witness(form, sysm, default_bound(form))
    if sol is None:
        raise SolverError("diagram solvable but witness search exhausted the bound")
    if not sysm.check(sol):
        raise AssertionError("internal: genus witness failed verification")
    return GenusResult(True, sol)


def genus_orientable(
    coefficients: Sequence[Word], g: int, gens: tuple[str, ...],
    want_witness: bool = True,
) -> GenusResult:
    """Is the orientable-form equation solvable at genus g?"""
    if g < 0:
        raise SolverError("genus must be >= 0")
    return _genus_at(coefficients, g, ORIENTABLE, gens, want_witness)


def genus_nonorientable(
    coefficients: Sequence[Word], g: int, gens: tuple[str, ...],
    want_witness: bool = True,
) -> GenusResult:
    """Is the non-orientable-form equation solvable at genus g (g >= 1)?"""
    if g < 1:
        raise SolverError("non-orientable genus must be >= 1")
    return _genus_at(coefficients, g, NONORIENTABLE, gens, want_witness)


def tuple_genus(
    coefficients: Sequence[Word], kind: str, gens: tuple[str, ...],
) -> int | None:
    """Least solvable genus, or None when no diagram exists.

    The search stops at total coefficient length / 2 + 1; the diagram model
    never needs more (costs are bounded by the letter count), and for
    non-orientable forms it starts at 1.
    """
    cutoff = sum(len(c) for c in coefficients) // 2 + 1
    diag = CancellationDiagrams(_normalized_discs(_tuple_form(coefficients, 0, kind)), kind)
    return diag.min_genus(cutoff, 0 if kind == ORIENTABLE else 1)
