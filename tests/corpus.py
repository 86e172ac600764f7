"""The exhaustive desk corpus used by the acceptance suite.

"Exhaustive" means exhaustive over this declared finite slice:

* variable skeletons: every arrangement of the 2v signed occurrences of
  v in {1, 2, 3} variables into one or two equations, up to renaming the
  variables (the first occurrences appear in alphabetical order) and up to
  dropping arrangements whose relators collapse (x next to x^-1);
* constants: every reduced word of length <= 3 over {a, b} placed in one
  designated gap of each skeleton, plus every pair of words from a pinned
  spot-check set placed in two gaps, plus the bare skeleton.

The full cartesian product over every gap and all length-<=3 words is
astronomically large; this slice keeps the run in the minutes budget while
still covering every skeleton shape and every coefficient word at least
once.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from quadeq.equations import Equation, EquationSystem
from quadeq.oracle import reduced_words
from quadeq.words import Generator, Word

GENS = ("a", "b")
PINNED = None  # filled below


def _constant_words(max_len: int = 3) -> list[Word]:
    return [w for w in reduced_words(2, max_len) if len(w) >= 1]


def _skeletons(n_vars: int, n_eqs: int) -> Iterator[tuple[tuple[Generator, ...], ...]]:
    """Signed occurrence arrangements, canonical up to variable renaming."""
    base = len(GENS)
    syms = list(range(base, base + n_vars))
    occs = []
    for s in syms:
        occs += [s, s]
    seen: set[tuple] = set()
    for perm in set(itertools.permutations(occs)):
        for signs in itertools.product((1, -1), repeat=2 * n_vars):
            letters = tuple(Generator(s, sg) for s, sg in zip(perm, signs))
            # canonical renaming: variables first appear in ascending order,
            # and each variable's first occurrence is positive (x -> x^-1 is
            # a solvability isomorphism)
            order: dict[int, int] = {}
            flip: dict[int, int] = {}
            for g in letters:
                if g.sym not in order:
                    order[g.sym] = base + len(order)
                    flip[g.sym] = g.sign
            canon = tuple(
                Generator(order[g.sym], g.sign * flip[g.sym]) for g in letters
            )
            if canon in seen:
                continue
            seen.add(canon)
            if n_eqs == 1:
                yield (canon,)
            else:
                for cut in range(1, len(canon)):
                    yield (canon[:cut], canon[cut:])


def _fill(skeleton, consts_at: dict[tuple[int, int], Word]) -> EquationSystem | None:
    """Insert constants at (equation, gap) slots; None when reduction merges
    variable occurrences away (the instance leaves the quadratic slice)."""
    n_vars = len({g.sym for eq in skeleton for g in eq})
    names = tuple("xyz"[:n_vars])
    equations = []
    for e, eq in enumerate(skeleton):
        letters: list[Generator] = []
        for i, g in enumerate(eq):
            if (e, i) in consts_at:
                letters.extend(consts_at[(e, i)].letters)
            letters.append(g)
        if (e, len(eq)) in consts_at:
            letters.extend(consts_at[(e, len(eq))].letters)
        equations.append(Equation(Word(letters)))
    system = EquationSystem(GENS, names, tuple(equations))
    if not system.is_quadratic():
        return None
    return system


def iter_corpus(max_vars: int = 3) -> Iterator[EquationSystem]:
    """The corpus slice; deterministic order.

    One variable: the designated gap ranges over every reduced word of
    length <= 3 and a second gap over a pinned set.  Two variables: the
    designated gap is exhaustive, one pinned pair.  Three variables: bare
    skeletons plus two pinned single insertions (the skeleton space itself
    is already exhausted).
    """
    al_words = _constant_words()
    pinned = [al_words[0], al_words[3], al_words[1] * al_words[2]]
    for v in range(1, max_vars + 1):
        for e in (1, 2):
            if e == 2 and v == 1:
                continue  # both sides of a 2-equation split must be nonempty
            for skel in sorted(
                _skeletons(v, e),
                key=lambda s: tuple(tuple(g) for eq in s for g in eq),
            ):
                if any(len(eq) == 0 for eq in skel):
                    continue
                bare = _fill(skel, {})
                if bare is not None:
                    yield bare
                for c in al_words:
                    sysm = _fill(skel, {(0, 1): c})
                    if sysm is not None:
                        yield sysm
                pairs = (
                    itertools.product(pinned, repeat=2)
                    if v == 1
                    else [(pinned[0], pinned[1]), (pinned[2], pinned[0])]
                )
                for c1, c2 in pairs:
                    sysm = _fill(
                        skel, {(0, 0): c1, (len(skel) - 1, len(skel[-1])): c2}
                    )
                    if sysm is not None:
                        yield sysm


@lru_cache(maxsize=None)
def corpus_systems() -> tuple[EquationSystem, ...]:
    """``iter_corpus()`` as a tuple, built once per process so that the
    tests share it.  ``iter_corpus`` itself stays a generator: a reader that
    renders each system and drops it holds none of them."""
    return tuple(iter_corpus())
