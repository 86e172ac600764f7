"""Quadratic sets of cyclic words and their glued surfaces.

A quadratic set is a family of cyclic words over an edge alphabet in which
every letter occurs exactly twice.  Writing the words on disc boundaries and
identifying equally-labelled edges yields a closed surface; this module
builds that cell complex (half-edge style), computes Euler characteristic,
orientability and genus per component, and implements the vertex machinery:
girths, extensions by free-factor words, augmentation, joint extensions and
multi-form genus accounting.

One routine knows the gluing rule: the step of the vertex-link walk
(``SurfaceComplex._cross``).  The complex walks the link from each corner not
yet placed, in (face, pos) order; each orbit is one vertex and its girth, so
vertices are numbered by their least corner.  Components come from one
2-colouring of the faces over shared edges, listed by their least face.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .standardize import LEAST_GENUS, NONORIENTABLE, ORIENTABLE
from .words import Alphabet, CyclicWord, Generator, Word, cyclic_normalize


class NotQuadraticError(ValueError):
    pass


class SurfaceError(ValueError):
    pass


@dataclass(frozen=True)
class QuadraticSet:
    words: tuple[CyclicWord, ...]
    kind: str  # ORIENTABLE or NONORIENTABLE


def classify(words: Iterable[Word]) -> QuadraticSet:
    """Check the exactly-twice condition and classify orientability.

    Orientable: every letter's two occurrences have opposite signs.
    Non-orientable: at least one letter occurs twice with the same sign.
    Words must be nonempty and cyclically reduced (polygon boundary labels,
    not group elements: cancellation would silently drop edges).
    """
    cyc: list[CyclicWord] = []
    for w in words:
        canon = cyclic_normalize(w)
        if len(canon) != len(w) or len(w) == 0:
            raise NotQuadraticError(
                "boundary words must be nonempty and cyclically reduced"
            )
        cyc.append(canon)
    occs: dict[int, list[int]] = {}
    for w in cyc:
        for g in w:
            occs.setdefault(g.sym, []).append(g.sign)
    for sym, signs in occs.items():
        if len(signs) != 2:
            raise NotQuadraticError(
                f"letter #{sym} appears {len(signs)} times (must be exactly 2)"
            )
    same = any(s1 == s2 for s1, s2 in occs.values())
    return QuadraticSet(tuple(cyc), NONORIENTABLE if same else ORIENTABLE)


@dataclass(frozen=True)
class Component:
    faces: tuple[int, ...]
    vertex_count: int
    edge_count: int
    chi: int
    orientable: bool

    @property
    def genus(self) -> int:
        if self.orientable:
            if self.chi % 2:
                raise AssertionError("internal: an orientable surface has even chi")
            return (2 - self.chi) // 2
        return 2 - self.chi


@dataclass(frozen=True)
class GirthCorner:
    """One corner of the vertex link: the word slot between two darts.

    ``face``/``pos``: the insertion slot sits before letter ``pos`` of the
    face word.  ``entry``/``exit_``: the two edges emanating from the vertex
    at this corner, oriented away from it.  ``reversed_``: the canonical walk
    traverses this corner against the face's reading direction.
    """

    face: int
    pos: int
    entry: Generator
    exit_: Generator
    reversed_: bool


@dataclass(frozen=True)
class Girth:
    vertex: int
    corners: tuple[GirthCorner, ...]

    @property
    def degree(self) -> int:
        return len(self.corners)


class SurfaceComplex:
    """The identified cell complex of a quadratic set: its counts, components,
    chi, orientability and genus.

    Corner (f, i) sits before letter i of face f: the tail of dart (f, i) and
    the head of dart (f, i - 1) meet there.
    """

    def __init__(self, qset: QuadraticSet):
        self.qset = qset
        self.faces: list[tuple[Generator, ...]] = [
            w.representative.letters for w in qset.words
        ]
        # partner map: (face, pos) -> (face', pos') for the equal-label dart
        occ: dict[int, list[tuple[int, int]]] = {}
        for f, letters in enumerate(self.faces):
            for i, g in enumerate(letters):
                occ.setdefault(g.sym, []).append((f, i))
        self.partner: dict[tuple[int, int], tuple[int, int]] = {}
        for positions in occ.values():
            (f1, i1), (f2, i2) = positions
            self.partner[(f1, i1)] = (f2, i2)
            self.partner[(f2, i2)] = (f1, i1)

        # in (face, pos) order, so each walk starts at its least corner
        self._vertex: dict[tuple[int, int], int] = {}
        self._girths: list[Girth] = []
        for f, letters in enumerate(self.faces):
            for i in range(len(letters)):
                if (f, i) not in self._vertex:
                    self._girths.append(self._walk(f, i))
        self.components = self._components()
        # a one-polygon gluing has no disc-flip freedom: the letter signs decide
        # orientability.  (Multi-disc sets can classify non-orientable yet glue
        # orientably, e.g. {ab, ab} is a sphere.)
        if len(self.faces) == 1 and self.kind != qset.kind:
            raise AssertionError(
                "internal: orientability of a one-word gluing disagrees with the letter signs"
            )

    def _cross(self, f: int, i: int, rev: bool) -> tuple[tuple[int, int], bool]:
        """The corner after (f, i) on its vertex link, and whether the walk
        then runs in reverse.  It leaves across dart i (dart i - 1 in
        reverse).  Across an inverse pair it keeps its direction and lands
        after the partner letter; across a same-sign pair it turns and lands
        before it."""
        d = i if not rev else (i - 1) % len(self.faces[f])
        f2, i2 = self.partner[(f, d)]
        rev2 = rev != (self.faces[f][d].sign == self.faces[f2][i2].sign)
        return (f2, i2 if rev2 else (i2 + 1) % len(self.faces[f2])), rev2

    def _walk(self, f: int, i: int) -> Girth:
        v = len(self._girths)
        corners: list[GirthCorner] = []
        state = ((f, i), False)
        while True:
            (cf, ci), rev = state
            if (cf, ci) in self._vertex:
                raise AssertionError("internal: the vertex link visits a corner twice")
            self._vertex[(cf, ci)] = v
            letters = self.faces[cf]
            into, out = letters[ci - 1].inv(), letters[ci]
            entry, exit_ = (out, into) if rev else (into, out)
            corners.append(GirthCorner(cf, ci, entry, exit_, rev))
            state = self._cross(cf, ci, rev)
            if state == ((f, i), False):
                return Girth(vertex=v, corners=tuple(corners))

    # --- counting -----------------------------------------------------------

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @property
    def edge_count(self) -> int:
        return len(self.partner) // 2

    @property
    def vertex_count(self) -> int:
        return len(self._girths)

    def vertex_of(self, face: int, pos: int) -> int:
        return self._vertex[(face, pos)]

    def vertices(self) -> list[int]:
        return list(range(len(self._girths)))

    @property
    def chi(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count

    @property
    def orientable(self) -> bool:
        return all(c.orientable for c in self.components)

    @property
    def genus(self) -> int:
        """Sum of the component genera (mixed orientability: plain sum)."""
        return sum(c.genus for c in self.components)

    @property
    def kind(self) -> str:
        return ORIENTABLE if self.orientable else NONORIENTABLE

    def _components(self) -> tuple[Component, ...]:
        """By one 2-colouring of the faces: a face is flipped against a
        neighbour when the link walk turns between them."""
        flipped: dict[int, bool] = {}
        comps = []
        for start in range(len(self.faces)):
            if start in flipped:
                continue
            flipped[start] = False
            faces, stack, orientable = [start], [start], True
            while stack:
                f = stack.pop()
                for i in range(len(self.faces[f])):
                    (f2, _), turned = self._cross(f, i, False)
                    want = flipped[f] != turned
                    if f2 not in flipped:
                        flipped[f2] = want
                        faces.append(f2)
                        stack.append(f2)
                    elif flipped[f2] != want:
                        orientable = False
            faces.sort()
            corners = [(f, i) for f in faces for i in range(len(self.faces[f]))]
            v = len({self._vertex[c] for c in corners})
            e = len(corners) // 2
            comps.append(Component(tuple(faces), v, e, v - e + len(faces), orientable))
        return tuple(comps)

    # --- vertex links ---------------------------------------------------------

    def girth(self, vertex: int) -> Girth:
        """Corners around a vertex in link-walk order, from its least corner;
        ``reversed_`` records that the walk has turned an odd number of times."""
        if not 0 <= vertex < len(self._girths):
            raise SurfaceError(f"no such vertex {vertex}")
        return self._girths[vertex]


def glue(words: Iterable[Word]) -> SurfaceComplex:
    """Classify the boundary words and glue their discs."""
    return SurfaceComplex(classify(words))


# --- hole-genus formulas ------------------------------------------------------

def genus_formula(case: int, n: int, k: int, t: int) -> int:
    """Genus of the hole-boundary family in terms of the filled surface.

    Case 1: carrier and boundary family orientable        -> n - k - t + 1
    Case 2: both non-orientable                            -> n - k - 2t + 2
    Case 3: carrier orientable, family non-orientable      -> n - 2k - 2t + 2
    Case 4: carrier non-orientable, family orientable      -> (n - k - 2t + 2)/2
    """
    if case == 1:
        return n - k - t + 1
    if case == 2:
        return n - k - 2 * t + 2
    if case == 3:
        return n - 2 * k - 2 * t + 2
    if case == 4:
        num = n - k - 2 * t + 2
        if num % 2:
            raise SurfaceError(f"case 4 numerator {num} is odd (inconsistent data)")
        return num // 2
    raise SurfaceError(f"no such case {case}")


# --- vertex extension ----------------------------------------------------------

def merge_alphabets(edges: Alphabet, factor: Alphabet) -> tuple[Alphabet, int]:
    """Combined alphabet with factor symbols shifted after the edge symbols."""
    return edges.extend(factor.names), len(edges)


def shift_word(w: Word, offset: int) -> Word:
    return Word(Generator(g.sym + offset, g.sign) for g in w)


def extension_product(girth: Girth, psis: Sequence[Word]) -> Word:
    """Signed product of the inserted elements read around the vertex:
    reversed corners contribute the inverse."""
    out = Word()
    for corner, psi in zip(girth.corners, psis):
        out = out * (psi.inverse() if corner.reversed_ else psi)
    return out


def extend_vertex(
    complex_: SurfaceComplex,
    vertex: int,
    psis: Sequence[Word],
    factor_offset: int = 0,
) -> list[Word]:
    """Insert factor elements at every corner of a vertex.

    ``psis[j]`` is written into the word slot of the j-th girth corner as
    given (the paper's convention: reversal affects only the product around
    the vertex, which ``extension_product`` computes).  ``factor_offset``
    shifts the psi symbols into a combined alphabet.  Returns the extended
    word list (plain words over the combined alphabet).
    """
    girth = complex_.girth(vertex)
    if len(psis) != girth.degree:
        raise SurfaceError(
            f"vertex degree is {girth.degree}, got {len(psis)} extension elements"
        )
    # the link walk places each corner once, so each slot gets one insert
    inserts = {
        (c.face, c.pos): shift_word(psi, factor_offset).letters
        for c, psi in zip(girth.corners, psis)
    }
    out: list[Word] = []
    for f, letters in enumerate(complex_.faces):
        pieces: list[Generator] = []
        for i, g in enumerate(letters):
            pieces.extend(inserts.get((f, i), ()))
            pieces.append(g)
        out.append(Word(pieces))
    return out


@dataclass(frozen=True)
class AugmentResult:
    """Corner rewrite of an extended vertex.

    ``corner_words`` are over a fresh alphabet: one symbol per corner edge
    (the accumulated letters) plus one symbol for the whole vertex word.
    Substituting ``defs`` back and reducing reproduces the extended corners.
    """

    alphabet: Alphabet
    corner_words: tuple[Word, ...]
    defs: tuple[Word, ...]   # defs[i] = psi_1 ... psi_i a_{i+1} over the input alphabet
    w_def: Word              # product psi_1 ... psi_l


def augment(girth: Girth, psis: Sequence[Word]) -> AugmentResult:
    """Collapse an extended vertex onto accumulated edge letters.

    With corners ``a_i^-1 psi_i a_{i+1}`` the rewrite is ``A_i^-1 A_{i+1}``
    for i < l and ``A_l^-1 W A_1``, where ``A_i = psi_1 ... psi_{i-1} a_i``
    and ``W = psi_1 ... psi_l``.
    """
    ell = girth.degree
    if len(psis) != ell:
        raise SurfaceError("need one psi per corner")
    a = [Word((c.entry,)) for c in girth.corners]
    alpha = Alphabet(tuple(f"A{i+1}" for i in range(ell)) + ("W",))
    defs: list[Word] = []
    acc = Word()
    for i in range(ell):
        defs.append(acc * a[i])
        acc = acc * psis[i]
    w_def = acc
    corner_words: list[Word] = []
    for i in range(ell):
        ai = Generator(i, 1)
        if i + 1 < ell:
            corner_words.append(Word((ai.inv(), Generator(i + 1, 1))))
        else:
            corner_words.append(Word((ai.inv(), Generator(ell, 1), Generator(0, 1))))
    return AugmentResult(
        alphabet=alpha,
        corner_words=tuple(corner_words),
        defs=tuple(defs),
        w_def=w_def,
    )


# --- joint extensions and multi-forms -------------------------------------------

@dataclass(frozen=True)
class JointExtension:
    """A genus-g joint extension on t vertices by factor words W_1..W_t.

    The declared genus must match the tuple genus through the bookkeeping
    rule: orientable tuple of genus l sits in a genus l + t - 1 extension,
    non-orientable in l + 2t - 2.
    """

    vertices: tuple[int, ...]
    words: tuple[Word, ...]
    genus: int
    tuple_kind: str  # orientability of (W_1..W_t)
    tuple_genus: int

    def __post_init__(self):
        t = len(self.vertices)
        if t == 0 or len(self.words) != t:
            raise SurfaceError("need one extension word per vertex")
        if self.tuple_kind not in LEAST_GENUS:
            raise SurfaceError(f"bad tuple kind {self.tuple_kind!r}")
        expected = self.genus - (t - 1) * (1 if self.tuple_kind == ORIENTABLE else 2)
        if expected < LEAST_GENUS[self.tuple_kind]:
            raise SurfaceError(
                f"declared extension genus {self.genus} forces tuple genus "
                f"{expected}, which is impossible"
            )
        if expected != self.tuple_genus:
            raise SurfaceError(
                f"tuple genus {self.tuple_genus} does not match declared "
                f"extension genus {self.genus} (expected {expected})"
            )


@dataclass(frozen=True)
class MultiForm:
    """A framing quadratic set with joint extensions on a vertex partition."""

    framing: QuadraticSet
    extensions: tuple[JointExtension, ...]
    framing_genus: int | None = None  # computed from the gluing when None

    def resolved_framing(self) -> tuple[str, int]:
        surf = SurfaceComplex(self.framing)
        k = surf.genus if self.framing_genus is None else self.framing_genus
        return surf.kind, k


def multiform_genus(m: MultiForm) -> int:
    """Total genus of the multi-form per the four orientability cases."""
    kind, k = m.resolved_framing()
    gsum = sum(e.genus for e in m.extensions)
    exts_orient = all(e.tuple_kind == ORIENTABLE for e in m.extensions)
    if kind == ORIENTABLE and exts_orient:
        return k + gsum
    if kind == NONORIENTABLE and not exts_orient:
        return k + gsum
    if kind == ORIENTABLE and not exts_orient:
        return 2 * k + gsum
    return k + 2 * gsum
