"""Bounded brute-force solver over free groups.

Enumerates assignments of reduced words to variables in deterministic
length-lex order and yields every one satisfying the system.  This is the
ground truth all other components are checked against, so the only
optimizations allowed are ones that provably keep the stream complete,
duplicate-free and in order:

* subtree pruning when a fully-assigned equation is nontrivial, or when the
  constant letters of a partially-substituted relator can no longer be
  cancelled by the remaining variables: by the abelianization bound, or by
  the constant-run bound below.  The root partials are tested before any
  value is enumerated, so a bound below the least possible one ends at once;
* exact closing of the last unassigned variable when its occurrences form a
  pattern with directly enumerable solutions (single occurrence, two of one
  sign ``u z K z v`` through the unique square root, or the conjugation
  sandwich ``u z^-1 K z v``); the closed candidates are emitted sorted, so
  the global order is unchanged;
* packed words (``Word.packed``) and carried partials: each node
  substitutes only its own variable's value into its parent's partial
  images of the relators.  Substitution is a homomorphism and reduced words
  are unique, so the partials, prunes and closed candidates are those of
  substituting the whole assignment afresh, and the packed integer order is
  the canonical letter order, so ``(len, letters)`` sorts as ``Word.key``.

The constant-run bound.  Let t be a freely reduced partial image with s
constant letters and occ variable letters, each variable to take a value
of at most ``limit`` letters, and R a maximal run of consecutive constant
letters of t.  If the substituted word reduces to 1, its letters cancel in
pairs that do not cross (the pairs of a free reduction).  No pair lies
inside R: the innermost such pair would be two adjacent inverse letters of
R, and t is reduced.  So each letter of R cancels against a letter of a
variable's value, at most occ * limit of them, or against a constant
outside R, at most s - |R| of them.  Hence t is hopeless when
2 |R| - s > occ * limit for its longest run R.  The term s - |R| is
needed: ``a x a^-1 x^-1`` has s = 2 > 0 yet x = 1 solves it.  For
``x^2 y^2 C`` the bound asks for ``limit >= |C| / 4``.

Words appear only at the boundary: the values stay packed until a solution
is yielded.  Before that, the solution is checked by substituting it into
each relator afresh with ``words.substitute``: the same packed algebra, but
not the carried partials, prunes or closed candidates of the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterator

from .equations import EquationSystem
from .words import (Word, length_lex, packed_cyclic_reduce, packed_inverse, packed_product,
                    packed_root_length, packed_solve_letter, packed_substitute, substitute)


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
def _enumeration(n_gens: int, max_len: int) -> tuple[bytes, ...]:
    """All reduced words over symbols 0..n_gens-1 of length <= max_len in
    length-lex order, packed."""
    letters = [bytes([p]) for p in range(2 * n_gens)]
    out, frontier = [b""], [b""]
    for _ in range(max_len):
        frontier = [w + x for w in frontier for x in letters if not w or x[0] != w[-1] ^ 1]
        out += frontier
    return tuple(out)


@lru_cache(maxsize=None)
def reduced_words(n_gens: int, max_len: int) -> tuple[Word, ...]:
    """All reduced words over symbols 0..n_gens-1 of length <= max_len,
    in length-lex order (letter order: sym asc, positive before negative).
    Cached: callers share the returned tuple."""
    return tuple(map(Word.from_packed, _enumeration(n_gens, max_len)))


@lru_cache(maxsize=None)
def _variable_mask(first_var: int) -> bytes:
    """Byte x -> 0 for a constant letter (x < first_var), else 1."""
    return bytes(x >= first_var for x in range(256))


def _hopeless(t: bytes, limit: int, first_var: int) -> bool:
    """True when the reduced partial image ``t`` can no longer become
    trivial: it has no variable letter left yet is nontrivial, some
    generator's exponent exceeds what the remaining variable letters could
    cancel (abelianization bound), or its longest run of constants does
    (constant-run bound of the module docstring)."""
    count = [t.count(p) for p in range(first_var)]
    s = sum(count)
    occ = len(t) - s
    if not occ:
        return bool(t)
    cap = occ * limit
    if any(abs(count[p] - count[p + 1]) > cap for p in range(0, first_var, 2)):
        return True
    if s <= cap:  # then 2 |R| - s <= s <= cap
        return False
    longest = max(map(len, t.translate(_variable_mask(first_var)).split(b"\x01")))
    return 2 * longest - s > cap


def _solve_last(t: bytes, sym: int, limit: int) -> list[bytes] | None:
    """All words w with |w| <= limit making ``t`` trivial when sym -> w,
    sorted, or None when the pattern is not one we can close exactly."""
    occ = [i for i, p in enumerate(t) if p >> 1 == sym]
    if not occ:
        return [] if t else None  # no occurrence: unsat unless trivial
    if len(occ) == 1:
        w = packed_solve_letter(t, occ[0])
        return [w] if len(w) <= limit else []
    if len(occ) > 2:
        return None  # left to the caller's enumeration
    i, j = occ
    u, mid, v = t[:i], t[i + 1:j], t[j + 1:]
    if t[i] == t[j]:
        # u z^s mid z^s v = 1  =>  (z^s mid)^2 = u^-1 v^-1 mid = c core c^-1,
        # whose square root is unique: c half c^-1 with half^2 = core literally
        core, c = packed_cyclic_reduce(packed_product(packed_inverse(u), packed_inverse(v), mid))
        half = core[:len(core) // 2]
        if half + half != core:
            return []
        w = packed_product(c, half, packed_inverse(c), packed_inverse(mid))
        w = packed_inverse(w) if t[i] & 1 else w
        return [w] if len(w) <= limit else []
    # u z^s mid z^-s v = 1.  For s = -1 this is the conjugation sandwich
    # z^-1 mid z = u^-1 v^-1; for s = 1 it is that with z' = z^-1.
    sols = _conjugators(mid, packed_product(packed_inverse(u), packed_inverse(v)), limit)
    return sols if t[i] & 1 else sorted(map(packed_inverse, sols), key=length_lex)


def _conjugators(k: bytes, m: bytes, limit: int) -> list[bytes]:
    """All z with z^-1 k z = m and |z| <= limit, sorted.

    If k ~ m the solutions form the coset C(k) z0 with C(k) = <root of the
    cyclic core>; enumerate the powers whose product stays within limit.
    """
    if not k:
        return [] if m else [b""]
    ck, uk = packed_cyclic_reduce(k)
    cm, um = packed_cyclic_reduce(m)
    n = len(ck)
    # k = uk ck uk^-1; rotation: ck = p q, cm = q p, and z0 = uk p um^-1
    r = next((r for r in range(n) if ck[r:] + ck[:r] == cm), None) if n == len(cm) else None
    if r is None:
        return []
    z0 = packed_product(uk, ck[:r], packed_inverse(um))
    d = packed_root_length(ck)
    gen = packed_product(uk, ck[:d], packed_inverse(uk))  # generator of the centralizer of k
    # |gen^t z0| >= |t|*|root| - |uk| - |z0|, so far powers cannot fit
    sols: set[bytes] = set()
    for step in (gen, packed_inverse(gen)):
        z = z0
        for _ in range(limit + len(uk) + n + len(z0) + 3):
            if len(z) <= limit:
                sols.add(z)
            z = packed_product(step, z)
    return sorted(sols, key=length_lex)


def enumerate_solutions(
    system: EquationSystem,
    bound: SearchBound,
    limit: int | None = None,
) -> Iterator[dict[str, Word]]:
    """Yield satisfying assignments (name -> Word) in length-lex order.

    ``limit`` optionally stops after that many solutions.
    """
    var_names = list(system.variables)
    var_syms = [system.var_sym(n) for n in var_names]
    relators = system.relators()
    first_var = 2 * system.n_constants
    roots = [r.packed for r in relators]
    if any(_hopeless(t, bound.per_var, first_var) for t in roots):
        return
    packed = _enumeration(system.n_constants, bound.per_var)
    values = [b""] * len(var_syms)

    def solution() -> dict[str, Word]:
        # substituted afresh, away from the search's carried partials
        words = list(map(Word.from_packed, values))
        if any(substitute(r, dict(zip(var_syms, words))) for r in relators):
            raise AssertionError("internal: packed search emitted a non-solution")
        return dict(zip(var_names, words))

    def descend(partials: list[bytes], images: dict[int, bytes]):
        """The partial images under ``images``, or None when one is hopeless."""
        out = []
        for t in partials:
            t = packed_substitute(t, images)
            if _hopeless(t, bound.per_var, first_var):
                return None
            out.append(t)
        return out

    def close_last(partials: list[bytes]) -> list[bytes] | None:
        candidates: list[bytes] | None = None
        for t in partials:
            sols = _solve_last(t, var_syms[-1], bound.per_var)
            if sols is None:
                continue
            keep = set(sols)
            candidates = sols if candidates is None else [w for w in candidates if w in keep]
            if not candidates:
                return []
        return candidates

    def rec(depth: int, partials: list[bytes], used: int) -> Iterator[dict[str, Word]]:
        # partials: each relator's image under the first ``depth`` values
        if depth == len(var_syms):
            if not any(partials):
                yield solution()
            return
        sym = var_syms[depth]
        budget = bound.per_var if bound.total is None else min(bound.per_var, bound.total - used)
        if depth == len(var_syms) - 1:
            closed = close_last(partials)
            if closed is not None:
                for w in closed:
                    if len(w) <= budget and not any(packed_substitute(t, {sym: w}) for t in partials):
                        values[depth] = w
                        yield solution()
                return
        for t in packed:
            if len(t) > budget:
                break  # length-lex order: every later word is longer
            child = descend(partials, {sym: t})
            if child is not None:
                values[depth] = t
                yield from rec(depth + 1, child, used + len(t))

    yield from islice(rec(0, roots, 0), limit)


def is_satisfiable(system: EquationSystem, bound: SearchBound) -> dict[str, Word] | None:
    """First solution within the bound, or None."""
    return next(enumerate_solutions(system, bound), None)


def min_solution_stats(system: EquationSystem, bound: SearchBound) -> int | None:
    """Least L such that a solution exists with every variable of length <= L,
    or None when nothing is found within the bound."""
    return next((ell for ell in range(bound.per_var + 1)
                 if is_satisfiable(system, SearchBound(ell, bound.total)) is not None), None)
