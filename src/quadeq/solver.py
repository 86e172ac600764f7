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
UNSAT is a complete verdict (there are finitely many diagrams), so it is not
bound-limited.

Once little budget is left, a state can be cut.  A join, the gluing of
two cycles of one cluster, costs a handle: 1 in an orientable form, 2 in a
non-orientable one.  With no join left, each cycle C closes in a region of
its own, made of C and whole other clusters: a cluster that merges into the
region brings its other cycles, which close there too, and no gluing
reaches another cycle of C's cluster, since that would be a join.  Every
letter of the region is glued inside it.  Read in a group where the two
letters of each glued pair cancel, the values of C and of the clusters of
its region add up to 0, so a state with a cycle that no set of whole other
clusters balances has no diagram.  Three cuts read it so:

    abelian:  an orientable form with nothing left, read in exact contents,
              the exponent sum of each symbol over the letters: every glued
              pair is a letter and its inverse;
    mod 2:    a non-orientable form with at most 1 left, read in contents
              mod 2, the set of symbols with an odd count: a glued pair is
              a letter and its inverse or two letters of one symbol, and
              inverting a cluster to merge it keeps every count;
    signed:   a non-orientable form with nothing left, read in exact
              contents with a sign per cluster, as shown below.

A gluing keeps the abelian and mod-2 values of the clusters it joins: it
removes a letter and its inverse (or, mod 2, two letters of one symbol), or
adds two clusters.  The root's values add up to 0, or not every letter can
be glued and the search does not start, so a state's do too, and all the
other clusters balance the cycle of a one-cycle cluster: these two cuts
test only clusters of more than one cycle.  A non-orientable state's exact
contents need not add up to 0, since an equal-letter gluing removes 2x, so
the signed cut tests every cycle.

Exact contents cut a non-orientable state in two ways.  Both proofs follow
a diagram as the gluing rules build it from the state as it is stored.  The
search tables a state and its re-arrangements (the canonical forms of
``CancellationDiagrams``) as one, since they have diagrams of the same
costs, so a state with a diagram has one of the same cost in which no state
on the way is re-arranged.

One open cluster.  Its gluings are splits (inverse letters of one cycle,
cost 0), crosscaps (1) and joins of two cycles (2); no merge is left.
Call the cycles that splits leave of a cycle C its lineage.  A split keeps
the lineage's content, so when no costed gluing touches the lineage, its
letters are glued in inverse pairs among themselves and content(C) = 0.  A
costed gluing is the first to touch at most as many lineages as it costs:
a crosscap acts on one cycle, a join on two, and a pending cluster's
closing crosscap on none.  So a state with one open cluster and more
cycles of nonzero content than it has left has no diagram.

Nothing left: the signed cut.  A crosscap costs 1 and a join 2, so only
splits and merges follow.  Give each letter the orientation its cluster has
once the diagram is done.  A split or a merge across inverse letters glues
a letter to its inverse as they are read, a merge across equal letters
first inverts the other cluster, after which they read so too, and a later
inversion turns both letters of a glued pair, so every glued pair is a
letter and its inverse in these orientations.  The letters of a cluster of
the state stay in one cluster, so they share an orientation, and summing
over the region of a cycle C

    content(C) + sum of +-content(K) over some set of other clusters K = 0,

with one sign per cluster K.  A canonical form inverts a clean or pending
cluster as a whole but a twisted cluster's cycles one at a time, so the
test gives each cycle of a twisted cluster a sign of its own.  A state
that passes this test passes the mod-2 cut, so the search runs the mod-2
cut at 1 left only.

The diagram the search finds is the certificate of a SAT answer: the search
keeps the gluing it chose at each state of its path, and
``CancellationDiagrams.certificate`` replays them on letters that carry
their positions, which gives the pairs of glued letters.  An orientable
form's witness is built from those pairs (``_built_witness``): merging a face
X p Y with a disc U p^-1 V leaves the face X V U Y = (w^-1 D w)(X p Y),
w = U p^-1 X^-1, so each component's last face is a product of conjugates of
its discs with known conjugators.  The pairs left in that face are cut out
one interleaved couple at a time, as in the classification of surfaces,
each couple a commutator of face pieces (``_commutators``).  Hurwitz moves
put the conjugates in the form's order.  A non-orientable form's witness is
the oracle's first solution within the bound.  Either is transported back
to the input's variables and checked.  The search's cycles are packed words
(``bytes``); the replay's are tuples of labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress
from operator import add, itemgetter, mul, xor
from typing import Iterable, Sequence

from .equations import EquationSystem, Equation
from .oracle import SearchBound, is_satisfiable
from .standardize import (
    LEAST_GENUS,
    NONORIENTABLE,
    ORIENTABLE,
    StandardForm,
    standardize,
)
from .words import Word, least_rotation, pack, packed_inverse, replay, solve_letter, substitute


class SolverError(ValueError):
    pass


# --- cancellation diagrams ----------------------------------------------------

# What an open cluster still owes when it closes, on top of the genus already
# charged: a clean cluster (untwisted, no handle, all discs oriented alike)
# nothing, a pending one (untwisted, with a handle or a flipped disc) its last
# crosscap in a non-orientable form, a twisted one nothing.  A merge of two
# clusters has at least the larger status of the two.
_CLEAN, _PENDING, _TWISTED = 0, 1, 2


# The most states one instance may table as failed.  Its tables and caches
# hold about STATE_BYTES per failed state (traced with tracemalloc on the
# spacer forms of N=2, B=3 and 4: 3.4-4.1 kB), so the cap keeps them under
# about 256 MB.  The largest single search known, the spacer form (3,1,1,1)
# with N=2 and B=3, tables 7,516.
STATE_BYTES = 4_000
MAX_STATES = (256 << 20) // STATE_BYTES


class SearchLimitError(SolverError):
    """The diagram search tabled MAX_STATES states without a verdict."""


def _inverse_labels(cycle: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([x ^ 1 for x in reversed(cycle)])


_second = itemgetter(1)


class _Memo(dict):
    """A dict that fills in a missing key with ``fn(key)``."""

    __slots__ = ("fn",)

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _nonnegative(budget: int) -> bool:
    return budget >= 0


def _never(budget: int) -> bool:
    return False


def _memo(fn):
    """``fn``, remembering each value it returns."""
    memo = _Memo()
    memo.fn = fn
    return memo.__getitem__


def _gluings(state: Sequence[tuple], view: Sequence[tuple], pivot: tuple[int, int, int],
             orientable: bool, left: int, invert=packed_inverse,
             only: tuple[int, int, int] | None = None):
    """(partner, cost, status, cycles, other clusters) for each way to glue
    the pivot letter to a partner, or only to the partner ``only``, by the
    rules of the module docstring; the cycles are what is left, nonempty, of
    the pivot's cluster, and have that status.  Gluings that cost more than
    ``left`` before the closing crosscap are skipped before their cycles are
    built.

    Positions are (cluster, cycle, offset).  ``view`` is ``state`` with
    packed letters, which decide the partners; only slices and ``invert``
    act on the letters of ``state``, so they may carry labels.
    """
    handle = 1 if orientable else 2
    closing = (0, 0 if orientable else 1, 0)  # by status
    ci, yi, pos = pivot
    status, cycles = state[ci]
    c = cycles[yi]
    p = view[ci][1][yi][pos]
    a = c[pos + 1:] + c[:pos]  # c = p a
    others = [*state[:ci], *state[ci + 1:]]
    partners = [only]
    if only is None:
        partners = []
        for cj, (_, viewed) in enumerate(view):
            for yj, letters in enumerate(viewed):
                if cj == ci and yj != yi and handle > left:
                    continue
                for q in (p ^ 1,) if orientable else (p ^ 1, p):
                    t = letters.find(q)
                    while t >= 0:
                        partners.append((cj, yj, t))
                        t = letters.find(q, t + 1)
        if not orientable:
            partners.sort()
    kept = cycles[:yi] + cycles[yi + 1:]  # the pivot cluster's other cycles
    for cj, yj, t in partners:
        q = view[cj][1][yj][t]
        if cj == ci:
            rest = others.copy()
            if yj == yi:
                if t == pos or q == p and left < 1:
                    continue
                u = (t - pos - 1) % len(c)
                head, tail = a[:u], a[u + 1:]  # c = p head q tail
                if q == p:
                    new, st, cost = (head + invert(tail),), _TWISTED, 1
                else:
                    new, st, cost = (head, tail), status, 0
                new = [*filter(None, new), *kept]
            else:
                d = cycles[yj]
                b = d[t + 1:] + d[:t]  # d = q b
                cost = handle
                if q == p:
                    e, st = a + invert(b), _TWISTED
                elif orientable:
                    e, st = a + b, status
                else:
                    e, st = a + b, max(status, _PENDING)
                k = yj - (yj > yi)  # the partner's cycle in kept
                new = [e, *kept[:k], *kept[k + 1:]] if e else [*kept[:k], *kept[k + 1:]]
        else:
            at = cj - (cj > ci)  # the partner's cluster in others
            rest = others[:at] + others[at + 1:]
            status2, cycles2 = state[cj]
            d = cycles2[yj]
            b = d[t + 1:] + d[:t]
            other = cycles2[:yj] + cycles2[yj + 1:]
            cost = 0
            if q == p:
                e, other = a + invert(b), map(invert, other)
                st = max(status, status2, _PENDING)
            else:
                e, st = a + b, max(status, status2)
            new = [e, *other, *kept] if e else [*other, *kept]
        if not new:
            cost += closing[st]
        yield (cj, yj, t), cost, st, new, rest


class CancellationDiagrams:
    """Least-cost search over cancellation diagrams of the coefficient discs.

    A search state is the multiset of open clusters, each a status and the
    multiset of its boundary cycles: packed words (``words.pack``), which
    are ``bytes``.  Every disc starts as a clean cluster with one
    cycle, and each step glues a pivot letter to one of its partners by the
    rules of the module docstring (``_gluings``).  Genus is charged as soon as
    it appears -- a handle costs 1 in an orientable form and 2 in a
    non-orientable one, a crosscap 1 -- and a pending cluster pays its last
    crosscap when it closes, which adds up to the cost table.

    States are canonical: cycles by least rotation, a twisted cluster's
    cycles each up to inversion, a pending cluster up to inverting all its
    cycles, the whole state up to inverting every clean cluster at once.
    (One clean cluster alone may not be inverted: which later merges need a
    flip depends on its orientation.)  The instance keeps a table of the
    largest budget proven infeasible per state across ``solvable_within``
    calls, so rising budgets reuse it, and each call tries each distinct
    (cost, state) child once; the search is set up once per instance, at its
    first call.  The pivot is a letter with the fewest
    partners, on the shortest cycle among those.  For each state on the path
    of the diagram found last it keeps the gluing it chose there, which
    ``certificate`` replays.  Children that a cut of the module docstring
    rules out are dropped: the one-cluster bound of a non-orientable form,
    and the abelian, mod-2 and signed cuts, which one balance test applies.
    They have no diagram, so the diagram found, and its certificate, do not
    depend on the cuts.  Contents are cached per cycle, exact ones as one
    integer and mod-2 ones as a bit mask of symbols.  A search that tables
    MAX_STATES states as failed raises SearchLimitError.
    """

    def __init__(self, coefficients: Sequence[Word], kind: str):
        if kind not in LEAST_GENUS:
            raise SolverError(f"unknown kind {kind!r}: {ORIENTABLE} or {NONORIENTABLE}")
        for w in coefficients:
            if len(w) == 0 or not w.is_cyclically_reduced():
                raise SolverError("coefficients must be nonempty and cyclically reduced")
        self.kind = kind
        self.cycles = [pack(w) for w in coefficients]
        self.n = sum(map(len, self.cycles))
        self._failed: dict[tuple, int] = {}   # state -> largest budget proven infeasible
        # state -> (budget, pivot, partner, child) on the path of the last diagram found
        self._chosen: dict[tuple, tuple] = {}
        self._within = None  # budget -> bool, set up by the first search

    def solvable_within(self, budget: int) -> bool:
        """Does some diagram cost at most ``budget``?"""
        if self._within is None:
            self._within = self._setup()
        return self._within(budget)

    def _setup(self):
        """The search of ``solvable_within``, as a function of the budget."""
        n, joined = self.n, b"".join(self.cycles)
        if n == 0:
            return _nonnegative
        if n % 2:
            return _never
        letters = range(2 * (max(joined) // 2 + 1))
        count = list(map(joined.count, letters))
        orientable = self.kind == ORIENTABLE
        # can every letter be glued?  Inverse letters pair up in an
        # orientable form; any two letters of a symbol in a non-orientable one
        plain, inverse = count[0::2], count[1::2]
        if plain != inverse if orientable else any(map((1).__and__, map(add, plain, inverse))):
            return _never
        failed, chosen = self._failed, self._chosen
        # a content as one integer, the exponent sum of symbol s times
        # base^s: signed sums of contents have exponents within +-n, so the
        # integer is exact; a content mod 2 as a bit mask, bit s for symbol s
        base = 2 * n + 1
        signed = [(-1) ** (x & 1) * base ** (x >> 1) for x in letters]
        weight = [1 << (x >> 1) for x in letters]
        exact = _memo(lambda c: sum(map(mul, signed, map(c.count, letters))))  # cycle -> content

        def parity(c: bytes) -> int:  # the weights of the letters that c has an odd count of
            return reduce(xor, compress(weight, map((1).__and__, map(c.count, letters))), 0)

        odd = _memo(parity)

        def rotate(c: bytes) -> bytes:
            i = least_rotation(c)
            return c[i:] + c[:i]

        # cycle -> its least rotation, and that of its inverse
        rotation = _memo(rotate)
        mirrored = _memo(lambda c: rotate(packed_inverse(c)))
        # cluster -> the cluster inverted, when it is clean
        mirror = _memo(lambda cl: (_CLEAN, tuple(sorted(map(mirrored, cl[1]))))
                       if cl[0] == _CLEAN else cl)

        def totals(key: tuple) -> set[int]:
            """The sums of one value from each of ``options``, added by
            ``op``, for key = (op, options)."""
            op, options = key
            out = {0}
            for values in options:
                out = {op(s, v) for s in out for v in values}
            return out

        reach = _memo(totals)

        def signs(cl: tuple) -> tuple[int, ...]:
            """0, or a cluster's content with either sign, or with a sign
            per cycle when it is twisted."""
            status, cycles = cl
            if status != _TWISTED:
                w = sum(map(exact, cycles))
                return 0, w, -w
            return 0, *reach((add, tuple((v, -v) for v in map(exact, cycles))))

        # The cuts of the module docstring by what is left, each as (the
        # group's addition, cycle -> its value, cluster -> what it may add
        # to a set that balances a cycle, does every gluing keep the values
        # of the clusters it joins).  Where it does, a cluster adds 0 or its
        # value, and a merged cluster's value is the sum of its parents'.
        if orientable:
            cuts = {0: (add, exact, _memo(lambda cl: (0, -sum(map(exact, cl[1])))), True)}
        else:
            cuts = {1: (xor, odd, _memo(lambda cl: (0, reduce(xor, map(odd, cl[1]), 0))), True),
                    0: (add, exact, _memo(signs), False)}

        def without(cut: tuple, adds: list[tuple], k: int) -> set[int]:
            """The values of the sets of whole clusters other than cluster k
            in ``cut``, cluster i adding one of adds[i]."""
            return reach((cut[0], tuple(sorted(adds[:k] + adds[k + 1:]))))

        def balanced(cut: tuple, adds: list[tuple],
                     clusters: Iterable[tuple[int, Sequence[bytes]]]) -> bool:
            """Is each cycle of each cluster (k, cycles) of ``clusters``
            balanced by some set of whole clusters other than k: is its value
            in without(cut, adds, k)?  Where every gluing keeps the values,
            the other clusters balance a cluster's only cycle."""
            _, value, _, kept = cut
            for k, cycles in clusters:
                if kept and len(cycles) <= 1:
                    continue
                if not without(cut, adds, k).issuperset(map(value, cycles)):
                    return False
            return True

        def cluster(status: int, cycles: list[bytes]) -> tuple:
            if status == _TWISTED:
                return status, tuple(sorted(map(min, map(rotation, cycles), map(mirrored, cycles))))
            key = tuple(sorted(map(rotation, cycles)))
            if status == _PENDING:
                key = min(key, tuple(sorted(map(mirrored, cycles))))
            return status, key

        def canonical(clusters: list[tuple]) -> tuple:
            state = tuple(sorted(clusters))
            if not state or state[0][0] != _CLEAN:  # clean clusters sort first
                return state
            return min(state, tuple(sorted(map(mirror, clusters))))

        def children(state: tuple, left: int) -> tuple[tuple, dict]:
            """The pivot, and (cost, state) -> partner for each gluing of the
            pivot that fits in ``left`` and leaves a child that passes the
            cuts."""
            # a letter's partners are the other letters of its symbol in a
            # non-orientable form, and half its symbol's letters in an
            # orientable one, where a letter and its inverse are equally
            # many in every state: the rarest symbols have the fewest
            joined = b"".join(chain.from_iterable(map(_second, state)))
            symbols = [joined.count(x) + joined.count(x + 1) for x in letters[::2]]
            least = min(filter(None, symbols))
            fewest = [x for x in letters if symbols[x >> 1] == least]
            size = n + 1
            for i, (_, cycles) in enumerate(state):
                for j, c in enumerate(cycles):
                    if len(c) < size:
                        at = [k for k in map(c.find, fewest) if k >= 0]
                        if at:
                            size, pivot = len(c), (i, j, min(at))
            # a child that glues inside the pivot's cluster keeps the other
            # clusters, and where gluings keep values, the value of the
            # pivot's cluster too.  So once per state, spare -> the sums of
            # the clusters other than the pivot's, or None when one of those
            # fails
            out, ci, shared = {}, pivot[0], {}
            for partner, cost, st, new, rest in _gluings(state, state, pivot, orientable, left):
                spare = left - cost
                if spare < 0:
                    continue
                if not orientable and len(rest) + bool(new) == 1:
                    cycles = new or rest[0][1]
                    if len(cycles) - [*map(exact, cycles)].count(0) > spare:
                        continue
                elif spare in cuts:
                    cut = cuts[spare]
                    op, value, whole, kept = cut
                    if kept and partner[0] == ci:
                        if spare not in shared:
                            adds = [*map(whole, state)]
                            others = [(k, cl[1]) for k, cl in enumerate(state) if k != ci]
                            ok = balanced(cut, adds, others)
                            shared[spare] = without(cut, adds, ci) if ok else None
                        # the test of ``balanced`` on the new cluster, against
                        # the sums found for the state
                        sums = shared[spare]
                        if sums is None or len(new) > 1 and not sums.issuperset(map(value, new)):
                            continue
                    else:
                        if kept:
                            head = 0, op(whole(state[ci])[1], whole(state[partner[0]])[1])
                        else:
                            head = whole((st, tuple(new)))
                        adds = [head, *map(whole, rest)]
                        if not balanced(cut, adds, enumerate([new, *map(_second, rest)])):
                            continue
                if new:
                    rest.append(cluster(st, new))
                out[cost, canonical(rest)] = partner
            return pivot, out

        # search is handed itself, so that no closure cell refers back to it:
        # that reference cycle would keep every table and memo of a
        # discarded instance alive until the garbage collector runs
        def search(state: tuple, left: int, search) -> bool:
            if not state:
                return True
            if failed.get(state, -1) >= left:
                return False
            pivot, moves = children(state, left)
            for cost, child in sorted(moves, key=itemgetter(0)):
                if search(child, left - cost, search):
                    chosen[state] = (left, pivot, moves[cost, child], child)
                    return True
            failed[state] = left
            if len(failed) >= MAX_STATES:
                raise SearchLimitError(f"the diagram search tabled {len(failed)} states")
            return False

        root = canonical([cluster(_CLEAN, [c]) for c in self.cycles])

        def within(budget: int) -> bool:
            last = chosen.get(root)
            return (last is not None and last[0] <= budget) or search(root, budget, search)

        return within

    def min_genus(self, cutoff: int, start: int = 0) -> int | None:
        """Least budget in ``start..cutoff`` that some diagram fits, or None."""
        return next((g for g in range(start, cutoff + 1) if self.solvable_within(g)), None)

    def certificate(self, budget: int) -> list[tuple[tuple[int, int], tuple[int, int]]] | None:
        """The letters that a diagram of cost at most ``budget`` glues, as
        pairs of positions (disc, offset); None when no diagram fits.

        The descent replays the gluings ``solvable_within`` chose on the path
        of the diagram it found, on states whose letters carry their identity:
        labels, tuples of ints, since they reach 2n.  Letter i of the discs is
        ``2*i``, and ``2*i + 1`` once it is read inverted, so ``_gluings``
        acts on it as on a packed letter.  After each gluing the state is put
        in the search's canonical arrangement, where the next chosen gluing
        applies; no state is searched again.
        """
        if not self.solvable_within(budget):
            return None
        where = [(d, k) for d, c in enumerate(self.cycles) for k in range(len(c))]
        packed = [x ^ f for c in self.cycles for x in c for f in (0, 1)]
        orientable = self.kind == ORIENTABLE
        turns: dict[tuple, tuple] = {}

        def turned(c: tuple) -> tuple:
            """The least rotations of a labelled cycle read forward and
            inverted, each as (packed view, labelled cycle)."""
            f = turns.get(c)
            if f is None:
                v = bytes(map(packed.__getitem__, c))
                f = []
                for w, d in ((v, c), (packed_inverse(v), _inverse_labels(c))):
                    i = least_rotation(w)
                    f.append((w[i:] + w[:i], d[i:] + d[:i]))
                f = turns[c] = turns[f[0][1]] = tuple(f)
                turns[f[1][1]] = f[::-1]
            return f

        def arrange(cl: tuple) -> tuple:
            """A labelled cluster read forward and with every cycle inverted,
            each as ((status, views), (status, labelled cycles)): the rules of
            ``solvable_within``'s ``cluster``, applied to (packed view,
            labelled cycle) pairs and decided by the views."""
            st, cycles = cl
            fs = list(map(turned, cycles))
            if st == _TWISTED:
                a = b = sorted(map(min, fs))
            else:
                a, b = sorted(map(itemgetter(0), fs)), sorted(map(_second, fs))
                if st == _PENDING:
                    if [v for v, _ in b] < [v for v, _ in a]:
                        a = b
                    b = a
            (va, la), (vb, lb) = zip(*a), zip(*b)
            return ((st, va), (st, la)), ((st, vb), (st, lb))

        arrangement = _memo(arrange)  # labelled cluster -> its arrangements

        def arranged(clusters: list[tuple]) -> tuple[tuple, tuple]:
            """The canonical state that labelled clusters read as, and the
            clusters in its order, rotations and orientations: the rule of
            ``solvable_within``'s ``canonical``."""
            if not clusters:
                return (), ()
            plain, mirror = (zip(*sorted(x)) for x in zip(*map(arrangement, clusters)))
            views, labelled = plain
            mirror_views, mirror_labelled = mirror
            if mirror_views < views:
                return mirror_views, mirror_labelled
            return views, labelled

        ids = iter(range(0, 2 * self.n, 2))
        view, state = arranged([(_CLEAN, (tuple(next(ids) for _ in c),)) for c in self.cycles])
        pairs = []
        while state:
            left, pivot, partner, child = self._chosen[view]
            _, _, st, new, rest = next(_gluings(state, view, pivot, orientable, left,
                                                _inverse_labels, partner))
            (ci, yi, pos), (cj, yj, t) = pivot, partner
            pairs.append((where[state[ci][1][yi][pos] >> 1], where[state[cj][1][yj][t] >> 1]))
            if new:
                rest.append((st, tuple(new)))
            view, state = arranged(rest)
            if view != child:
                raise AssertionError("internal: the descent left the path of the diagram found")
        return pairs


def _normalized_discs(form: StandardForm) -> list[tuple[int, Word, Word]]:
    """The nontrivial coefficient discs of a standard form, as (slot, core,
    u) with slot j holding C_{j+1} (the last slot holds C) and C_{j+1} =
    u core u^-1, the core cyclically reduced.

    The equation reads prod(...) * C = 1, so the discs are C_1..C_{m-1} and
    C itself: a cancellation diagram fills in the whole left side.  Each
    conjugator absorbs the cyclic reduction of its C_j, and conjugating the
    whole equation cyclically reduces C; trivial discs are dropped.
    """
    discs = []
    for j, c in enumerate((*form.coefficients, form.tail)):
        core, u = c.cyclic_reduce()
        if len(core):
            discs.append((j, core, u))
    return discs


def _diagrams(form: StandardForm) -> CancellationDiagrams:
    return CancellationDiagrams([core for _, core, _ in _normalized_discs(form)], form.kind)


# --- the solver -----------------------------------------------------------------


@dataclass(frozen=True)
class SolveResult:
    """A verdict, with its witness when it is ``sat``.

    ``bound_used`` is the largest per-variable length bound that the oracle
    searched with on a non-orientable relator, over the relators decided so
    far: the length at which it found a witness, or the cap when it found
    none.  It is always 0 for orientable relators, whose witnesses are built
    from their diagrams."""

    status: str  # "sat" | "unsat" | "bound_exceeded" | "inconclusive"
    witness: dict[str, Word] | None
    bound_used: int


def default_bound(form: StandardForm) -> int:
    """The cited minimal-solution bound of a non-orientable form: 12 s^4."""
    s = sum(len(c) for c in form.coefficients) + len(form.tail)
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
        img = solve_letter(r, pos[0])
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


def _witness(form: StandardForm, diag: CancellationDiagrams, system: EquationSystem,
             bound: int | None) -> tuple[dict[str, Word] | None, int]:
    """A solution of ``system``, the standard equation of ``form``, and the
    per-variable length bound the oracle searched to find it (0 when the
    solution was built from the diagram).

    An orientable form's solution is built from the diagram that ``diag``
    found at the form's genus (``_built_witness``).  A non-orientable form
    takes the oracle's first solution at the least per-variable length
    ell <= bound that has one, by default ``default_bound``; its flipped
    discs would need a crosscap step before the construction applies.
    """
    if form.kind == ORIENTABLE:
        return _built_witness(form, diag, system.gens), 0
    if bound is None:
        bound = default_bound(form)
    for ell in range(bound + 1):
        found = is_satisfiable(system, SearchBound(ell))
        if found is not None:
            return found, ell
    return None, bound


def _value(cores: list[Word], letters: list[tuple[int, int]]) -> Word:
    """The word read by letters given as (disc, offset)."""
    return Word([cores[d][k] for d, k in letters])


def _built_witness(form: StandardForm, diag: CancellationDiagrams,
                   gens: tuple[str, ...]) -> dict[str, Word]:
    """A solution of an orientable form's standard equation, read off the
    certificate of the diagram that ``diag`` found at the form's genus.

    The discs D are merged along the certificate's pairs into one face per
    component, from its last disc along a spanning tree of the dual graph,
    the disc of largest index first.  Merging the face X p Y with a disc
    U q V, q = p^-1, leaves the face X V U Y = (w^-1 D w)(X p Y) with
    w = U q X^-1, so each face reads as a product of conjugates of its discs,
    mostly in the form's order, with known conjugators.  A component's face
    is then a product of commutators (``_commutators``) or trivial, which
    gives a relation prod [x, y] * prod w^-1 D w = 1 per component; each
    relation goes in front of the ones before it, whose commutators it
    conjugates.  Hurwitz moves (``hurwitz_sorted``) put the conjugates in
    the form's order, conjugating the whole relation leaves C itself last,
    and unused handles are 1.
    """
    discs = _normalized_discs(form)
    cores = [core for _, core, _ in discs]
    partner = {}
    for p, q in diag.certificate(form.genus):
        partner[p], partner[q] = q, p

    handles: list[tuple[Word, Word]] = []
    conjugates: list[tuple[int, Word]] = []  # (disc, w): w^-1 D w
    merged: set[int] = set()
    for root in reversed(range(len(discs))):
        if root in merged:
            continue
        merged.add(root)
        face = [(root, k) for k in range(len(cores[root]))]
        product = [(root, Word())]
        while True:
            i = max((i for i, x in enumerate(face) if partner[x][0] not in merged),
                    key=lambda i: partner[face[i]][0], default=None)
            if i is None:
                break
            d, j = partner[face[i]]
            merged.add(d)
            disc = [(d, k) for k in range(len(cores[d]))]
            product.insert(0, (d, _value(cores, disc[:j + 1]) * _value(cores, face[:i]).inverse()))
            face = face[:i] + disc[j + 1:] + disc[:j] + face[i + 1:]
        total = _value(cores, face)
        mine = []
        if total:
            # prod [x, y] = total, so prod [y, x] (reversed) * product = 1
            mine = [(y, x) for x, y in reversed(_commutators(face, cores, partner))]
        handles = mine + [(x.conjugated_by(total.inverse()), y.conjugated_by(total.inverse()))
                          for x, y in handles]
        conjugates = product + conjugates
    if len(handles) > form.genus:
        raise AssertionError("internal: the diagram needs more handles than the form has")
    conjugates = hurwitz_sorted(conjugates, cores)
    t = Word()
    if discs and discs[-1][0] == len(form.coefficients):
        t = (discs[-1][2] * conjugates[-1][1]).inverse()  # C = t^-1 w^-1 D w t
    genus_names, conj_names = form.variable_names(gens)
    out = dict.fromkeys(genus_names + conj_names, Word())
    for i, (x, y) in enumerate(handles):
        out[genus_names[2 * i]], out[genus_names[2 * i + 1]] = x.conjugated_by(t), y.conjugated_by(t)
    for (slot, _, u), (_, w) in zip(discs, conjugates):
        if slot < len(conj_names):
            out[conj_names[slot]] = u * w * t
    return out


def hurwitz_sorted(factors: Sequence[tuple[int, Word]],
                   base: Sequence[Word]) -> list[tuple[int, Word]]:
    """The product of conjugates w^-1 base[d] w, for (d, w) in ``factors``,
    rewritten with its factors in increasing d.  Each Hurwitz move
    (w1^-1 D1 w1)(w2^-1 D2 w2) = (w2^-1 D2 w2)((w1 c)^-1 D1 (w1 c)), with c
    the second factor, swaps two adjacent factors and keeps the product;
    insertion order swaps each inverted pair once.
    """
    out = list(factors)
    for end in range(1, len(out)):
        for k in range(end, 0, -1):
            (d1, w1), (d2, w2) = out[k - 1], out[k]
            if d1 < d2:
                break
            out[k - 1], out[k] = (d2, w2), (d1, w1 * base[d2].conjugated_by(w2))
    return out


def _commutators(face: list[tuple[int, int]], cores: list[Word],
                 partner: dict) -> list[tuple[Word, Word]]:
    """(x_i, y_i) with prod [x_i, y_i] equal to the value of ``face``, one
    pair per handle of the face, whose letters are glued among themselves
    in inverse pairs.

    This is the cut-and-paste step of the classification of surfaces
    (Massey, *Algebraic Topology: An Introduction*, ch. 1), carried out on
    values.  Take the glued pair of least span.  Adjacent letters cancel.
    Otherwise the first letter inside has its partner outside, so two pairs
    interleave, and

        A P B Q C P^-1 D Q^-1 E = s [C P^-1 D, Q^-1 B^-1 C^-1] s^-1 (A D C B E)

    with s = A D: the commutator goes out, and the face left is A D C B E.
    Every entry is a product of face pieces, conjugated by one.
    """
    out = []
    face = list(face)
    while face:
        at = {x: i for i, x in enumerate(face)}
        i, j = min(((i, at[partner[x]]) for i, x in enumerate(face) if at[partner[x]] > i),
                   key=lambda ij: ij[1] - ij[0])
        if j == i + 1:
            del face[i:j + 1]
            continue
        k = at[partner[face[i + 1]]]
        # the interleaved pairs sit at i1 < i2 < j1 < j2
        i1, i2, j1, j2 = (i, i + 1, j, k) if k > j else (k, i, i + 1, j)
        a, b, c, d, e = (face[:i1], face[i1 + 1:i2], face[i2 + 1:j1], face[j1 + 1:j2],
                         face[j2 + 1:])
        s = _value(cores, a + d).inverse()
        out.append((_value(cores, c + [face[j1]] + d).conjugated_by(s),
                    _value(cores, c + b + [face[i2]]).inverse().conjugated_by(s)))
        face = a + d + c + b + e
    return out


def solve_quadratic(
    system: EquationSystem,
    bound: int | None = None,
) -> SolveResult:
    """Decide a quadratic system; SAT answers carry verified witnesses.

    UNSAT verdicts are complete (diagram search is finite); the bound only
    caps the oracle's witness search for non-orientable equations,
    defaulting to the cited free-group bound (``default_bound``).  A
    diagram search that reaches MAX_STATES leaves the verdict
    ``inconclusive``.
    """
    if not system.is_quadratic():
        raise SolverError("system is not quadratic")
    relators, elim, unsat = _decouple(system)
    if unsat:
        return SolveResult("unsat", None, 0)

    assignment: dict[int, Word] = {}
    used_bound = 0
    for rel in relators:
        nz = standardize(EquationSystem(system.gens, system.variables, (Equation(rel),)))
        diag = _diagrams(nz.form)
        try:
            if not diag.solvable_within(nz.form.genus):
                return SolveResult("unsat", None, used_bound)
        except SearchLimitError:
            return SolveResult("inconclusive", None, used_bound)
        found, ell = _witness(nz.form, diag, nz.system, bound)
        used_bound = max(used_bound, ell)
        if found is None:
            return SolveResult("bound_exceeded", None, used_bound)
        back = nz.to_original(found)
        for g in rel:
            if g.sym >= system.n_constants:
                assignment[g.sym] = back[system.var_name(g.sym)]

    # eliminated variables follow from later material; free ones are 1
    assignment = replay([{sym: expr} for sym, expr in reversed(elim)], assignment,
                        system.var_syms)
    witness = {system.var_name(s): w for s, w in assignment.items()}
    if not system.check(witness):
        raise AssertionError("internal: witness failed verification")
    return SolveResult("sat", witness, used_bound)


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
    diag = _diagrams(form)  # refuses an unknown kind
    if g < LEAST_GENUS[kind]:
        raise SolverError(f"{kind} genus must be >= {LEAST_GENUS[kind]}")
    if not diag.solvable_within(g):
        return GenusResult(False, None)
    if not want_witness:
        return GenusResult(True, None)
    sysm = form.system(gens)
    sol, _ = _witness(form, diag, sysm, None)
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
    return _genus_at(coefficients, g, ORIENTABLE, gens, want_witness)


def genus_nonorientable(
    coefficients: Sequence[Word], g: int, gens: tuple[str, ...],
    want_witness: bool = True,
) -> GenusResult:
    """Is the non-orientable-form equation solvable at genus g (g >= 1)?"""
    return _genus_at(coefficients, g, NONORIENTABLE, gens, want_witness)


def tuple_genus(
    coefficients: Sequence[Word], kind: str, gens: tuple[str, ...],
) -> int | None:
    """Least solvable genus, or None when no diagram exists.

    The search stops at total coefficient length / 2 + 1; the diagram model
    never needs more (costs are bounded by the letter count), and it starts
    at the kind's least genus.
    """
    cutoff = sum(len(c) for c in coefficients) // 2 + 1
    diag = _diagrams(_tuple_form(coefficients, 0, kind))
    return diag.min_genus(cutoff, LEAST_GENUS[kind])
