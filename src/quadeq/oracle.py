"""Bounded brute-force solver over free groups.

Enumerates assignments of reduced words to variables in deterministic
length-lex order and yields every one satisfying the system.  This is the
ground truth all other components are checked against, so the only
optimizations allowed are ones that provably keep the stream complete,
duplicate-free and in order:

* subtree pruning when a fully-assigned equation is nontrivial, or when the
  constant letters of a partially-substituted relator can no longer be
  cancelled by the remaining variables (abelianization bound);
* exact closing of the last unassigned variable when its occurrences form a
  pattern with directly enumerable solutions (single occurrence, ``z^n = K``,
  or the conjugation sandwich ``u z^-1 K z v``); the closed candidates are
  emitted sorted, so the global order is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .equations import EquationSystem
from .words import Generator, Word, nth_root, root_of, solve_letter, substitute


@dataclass(frozen=True)
class SearchBound:
    """Per-variable reduced-word length cap, plus optional total cap."""

    per_var: int
    total: int | None = None

    def __post_init__(self):
        if self.per_var < 0:
            raise ValueError("per-variable bound must be >= 0")
        if self.total is not None and self.total < 0:
            raise ValueError("total bound must be >= 0")


@lru_cache(maxsize=None)
def reduced_words(n_gens: int, max_len: int) -> tuple[Word, ...]:
    """All reduced words over symbols 0..n_gens-1 of length <= max_len,
    in length-lex order (letter order: sym asc, positive before negative).
    Cached: callers share the returned tuple."""
    letters = [Generator(s, sign) for s in range(n_gens) for sign in (1, -1)]
    out: list[Word] = [Word()]
    frontier: list[Word] = [Word()]
    for _ in range(max_len):
        nxt: list[Word] = []
        for w in frontier:
            last = w.letters[-1] if len(w) else None
            for g in letters:
                if last is not None and g == last.inv():
                    continue
                nxt.append(Word._raw(w.letters + (g,)))
        out.extend(nxt)
        frontier = nxt
    return tuple(out)


def _abelian_prune(partial: Word, unassigned: set[int], limit: int, n_const: int) -> bool:
    """True means the subtree is hopeless: some generator's exponent in the
    constant part exceeds what the remaining variable letters could cancel."""
    occ = sum(1 for g in partial if g.sym in unassigned)
    budget = occ * limit
    sums: dict[int, int] = {}
    for g in partial:
        if g.sym < n_const:
            sums[g.sym] = sums.get(g.sym, 0) + g.sign
    return any(abs(v) > budget for v in sums.values())


def _occurrence_pattern(relator: Word, sym: int) -> list[tuple[int, int]]:
    return [(i, g.sign) for i, g in enumerate(relator) if g.sym == sym]


def _solve_last(relator: Word, sym: int, limit: int) -> list[Word] | None:
    """All words w with |w| <= limit making relator = 1 when sym -> w,
    or None when the pattern is not one we can close exactly."""
    occ = _occurrence_pattern(relator, sym)
    if not occ:
        return [] if len(relator) else None  # no occurrence: unsat unless trivial
    if len(occ) == 1:
        w = solve_letter(relator, occ[0][0])
        return [w] if len(w) <= limit else []
    signs = {s for _, s in occ}
    if len(signs) == 1:
        # same sign throughout: the two-occurrence case u z^s M z^s v = 1
        # is solved through the unique square root of u^-1 v^-1 M; more
        # occurrences are left to the caller's enumeration
        if len(occ) == 2:
            (i, s), (j, _) = occ
            u = relator.subword(0, i)
            mid = relator.subword(i + 1, j)
            v = relator.subword(j + 1, len(relator))
            # u z^s mid z^s v = 1  =>  (z^s mid)^2 = u^-1 v^-1 mid
            rhs = u.inverse() * v.inverse() * mid
            r = nth_root(rhs, 2)
            if r is None:
                return []
            # z^s = r * mid^-1
            w = r * mid.inverse()
            w = w if s > 0 else w.inverse()
            return [w] if len(w) <= limit else []
        return None
    if len(occ) == 2:
        (i, si), (j, sj) = occ
        if si != -sj:
            raise AssertionError("internal: mixed signs expected")
        u = relator.subword(0, i)
        mid = relator.subword(i + 1, j)
        v = relator.subword(j + 1, len(relator))
        # u z^si mid z^-si v = 1.  For si = -1 this is the conjugation
        # sandwich u z^-1 mid z v = 1, i.e. z^-1 mid z = u^-1 v^-1.
        target = u.inverse() * v.inverse()
        if si == 1:
            # u z mid z^-1 v = 1  =>  z mid z^-1 = target
            # equivalent to z'^-1 mid z' = target with z' = z^-1
            sols = _conjugators(mid, target, limit)
            return sorted((w.inverse() for w in sols), key=Word.key)
        sols = _conjugators(mid, target, limit)
        return sorted(sols, key=Word.key)
    return None


def _conjugators(k: Word, m: Word, limit: int) -> list[Word]:
    """All z with z^-1 k z = m and |z| <= limit.

    If k ~ m the solutions form the coset C(k) z0 with C(k) = <root of the
    cyclic core>; enumerate the powers whose product stays within limit.
    """
    if len(k) == 0:
        return [w for w in ([Word()] if len(m) == 0 else [])]
    ck, uk = k.cyclic_reduce()
    cm, um = m.cyclic_reduce()
    if len(ck) != len(cm):
        return []
    z0: Word | None = None
    for r in range(len(ck)):
        rot = Word._raw(ck.letters[r:] + ck.letters[:r])
        if rot == cm:
            # k = uk ck uk^-1; rotation: ck = p q, rot = q p with |p| = r
            p = ck.subword(0, r)
            # z = uk p um^-1 conjugates k to m
            z0 = uk * p * um.inverse()
            break
    if z0 is None:
        return []
    root, _ = root_of(ck)
    gen = uk * root * uk.inverse()  # generator of the centralizer of k
    # |gen^t z0| >= |t|*|root| - |uk| - |z0|, so far powers cannot fit
    T = limit + len(uk) + len(ck) + len(z0) + 2
    sols = {z.letters: z for t in range(-T, T + 1)
            for z in [(gen ** t) * z0] if len(z) <= limit}
    return sorted(sols.values(), key=Word.key)


def enumerate_solutions(
    system: EquationSystem,
    bound: SearchBound,
    limit: int | None = None,
) -> Iterator[dict[str, Word]]:
    """Yield satisfying assignments (name -> Word) in length-lex order.

    ``limit`` optionally stops after that many solutions.
    """
    n_const = system.n_constants
    var_names = list(system.variables)
    var_syms = [system.var_sym(n) for n in var_names]
    relators = system.relators()
    words = reduced_words(n_const, bound.per_var)
    emitted = 0

    def total_len(assign: dict[int, Word]) -> int:
        return sum(len(w) for w in assign.values())

    def prune(assign: dict[int, Word], depth: int) -> bool:
        unassigned = set(var_syms[depth:])
        for rel in relators:
            partial = substitute(rel, assign)
            syms = partial.symbols()
            if not (syms & unassigned):
                if len(partial):
                    return True
            elif _abelian_prune(partial, unassigned, bound.per_var, n_const):
                return True
        return False

    def close_last(assign: dict[int, Word]) -> list[Word] | None:
        sym = var_syms[-1]
        candidates: list[Word] | None = None
        for rel in relators:
            partial = substitute(rel, assign)
            if sym not in partial.symbols():
                if len(partial):
                    return []
                continue
            sols = _solve_last(partial, sym, bound.per_var)
            if sols is None:
                continue
            if candidates is None:
                candidates = sols
            else:
                keep = set(w.letters for w in sols)
                candidates = [w for w in candidates if w.letters in keep]
            if not candidates:
                return []
        return candidates

    def rec(depth: int, assign: dict[int, Word]) -> Iterator[dict[str, Word]]:
        nonlocal emitted
        if limit is not None and emitted >= limit:
            return
        if depth == len(var_syms):
            if all(len(substitute(r, assign)) == 0 for r in relators):
                emitted += 1
                yield {n: assign[s] for n, s in zip(var_names, var_syms)}
            return
        if depth == len(var_syms) - 1 and var_syms:
            closed = close_last(assign)
            if closed is not None:
                budget = bound.per_var
                if bound.total is not None:
                    budget = min(budget, bound.total - total_len(assign))
                for w in closed:
                    if limit is not None and emitted >= limit:
                        return
                    if len(w) > budget:
                        continue
                    assign[var_syms[depth]] = w
                    if all(len(substitute(r, assign)) == 0 for r in relators):
                        emitted += 1
                        yield {n: assign[s] for n, s in zip(var_names, var_syms)}
                assign.pop(var_syms[depth], None)
                return
        sym = var_syms[depth]
        for w in words:
            if limit is not None and emitted >= limit:
                return
            if bound.total is not None and total_len(assign) + len(w) > bound.total:
                continue
            assign[sym] = w
            if not prune(assign, depth + 1):
                yield from rec(depth + 1, assign)
        if sym in assign:
            del assign[sym]

    yield from rec(0, {})


def is_satisfiable(system: EquationSystem, bound: SearchBound) -> dict[str, Word] | None:
    """First solution within the bound, or None."""
    for sol in enumerate_solutions(system, bound, limit=1):
        return sol
    return None


def min_solution_stats(system: EquationSystem, bound: SearchBound) -> int | None:
    """Least L such that a solution exists with every variable of length <= L,
    or None when nothing is found within the bound."""
    for ell in range(bound.per_var + 1):
        if is_satisfiable(system, SearchBound(ell, bound.total)) is not None:
            return ell
    return None
