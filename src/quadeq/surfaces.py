"""Quadratic sets of cyclic words and their glued surfaces.

A quadratic set is a family of cyclic words over an edge alphabet in which
every letter occurs exactly twice.  Writing the words on disc boundaries and
identifying equally-labelled edges yields a closed surface; this module
builds that cell complex (half-edge style), computes Euler characteristic,
orientability and genus per component, and implements the vertex machinery:
girths, extensions by free-factor words, augmentation, joint extensions and
multi-form genus accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .standardize import NONORIENTABLE, ORIENTABLE
from .words import Alphabet, CyclicWord, Generator, Word, cyclic_normalize


class NotQuadraticError(ValueError):
    pass


class SurfaceError(ValueError):
    pass


@dataclass(frozen=True)
class QuadraticSet:
    words: tuple[CyclicWord, ...]
    kind: str  # ORIENTABLE or NONORIENTABLE

    @property
    def edge_count(self) -> int:
        return sum(len(w) for w in self.words) // 2


def classify(words: Iterable[CyclicWord | Word]) -> QuadraticSet:
    """Check the exactly-twice condition and classify orientability.

    Orientable: every letter's two occurrences have opposite signs.
    Non-orientable: at least one letter occurs twice with the same sign.
    Words must be nonempty and cyclically reduced (polygon boundary labels,
    not group elements: cancellation would silently drop edges).
    """
    cyc: list[CyclicWord] = []
    for w in words:
        if isinstance(w, CyclicWord):
            if len(w) == 0:
                raise NotQuadraticError("empty boundary word")
            cyc.append(w)
            continue
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
class GluedSurface:
    vertex_count: int
    edge_count: int
    face_count: int
    components: tuple[Component, ...]

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


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        if p != x:
            self.parent[x] = p = self.find(p)
        return p

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


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
    """The identified cell complex of a quadratic set."""

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
        for sym, positions in occ.items():
            (f1, i1), (f2, i2) = positions
            self.partner[(f1, i1)] = (f2, i2)
            self.partner[(f2, i2)] = (f1, i1)

        # corner identification.  corner (f,i) sits before letter i; the
        # tail of dart (f,i) and the head of dart (f,i-1) meet there.
        uf = _UnionFind()
        for f, letters in enumerate(self.faces):
            n = len(letters)
            for i in range(n):
                uf.find((f, i))
        for (f, i), (f2, i2) in self.partner.items():
            if (f, i) > (f2, i2):
                continue
            g, g2 = self.faces[f][i], self.faces[f2][i2]
            n, n2 = len(self.faces[f]), len(self.faces[f2])
            if g.sign == -g2.sign:
                uf.union((f, i), (f2, (i2 + 1) % n2))          # tail ~ head
                uf.union((f, (i + 1) % n), (f2, i2))           # head ~ tail
            else:
                uf.union((f, i), (f2, i2))                     # tail ~ tail
                uf.union((f, (i + 1) % n), (f2, (i2 + 1) % n2))  # head ~ head
        self._corner_uf = uf
        roots = sorted({uf.find((f, i)) for f, ls in enumerate(self.faces) for i in range(len(ls))})
        self._vertex_of_root = {r: v for v, r in enumerate(roots)}

        # face components via shared edges
        cuf = _UnionFind()
        for f in range(len(self.faces)):
            cuf.find(f)
        for (f, _i), (f2, _i2) in self.partner.items():
            cuf.union(f, f2)
        self._comp_uf = cuf

    # --- counting -----------------------------------------------------------

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @property
    def edge_count(self) -> int:
        return len(self.partner) // 2

    @property
    def vertex_count(self) -> int:
        return len(self._vertex_of_root)

    def vertex_of(self, face: int, pos: int) -> int:
        return self._vertex_of_root[self._corner_uf.find((face, pos))]

    def vertices(self) -> list[int]:
        return sorted(self._vertex_of_root.values())

    def _component_faces(self) -> dict[int, list[int]]:
        comps: dict[int, list[int]] = {}
        for f in range(len(self.faces)):
            comps.setdefault(self._comp_uf.find(f), []).append(f)
        return comps

    def _orientable(self, face_group: Sequence[int]) -> bool:
        colors: dict[int, int] = {}
        for start in face_group:
            if start in colors:
                continue
            colors[start] = 1
            stack = [start]
            while stack:
                f = stack.pop()
                for i, g in enumerate(self.faces[f]):
                    f2, i2 = self.partner[(f, i)]
                    g2 = self.faces[f2][i2]
                    want = -g.sign * g2.sign * colors[f]
                    if f2 not in colors:
                        colors[f2] = want
                        stack.append(f2)
                    elif colors[f2] != want:
                        return False
        return True

    def summary(self) -> GluedSurface:
        comps = []
        for _root, face_group in sorted(self._component_faces().items()):
            fset = set(face_group)
            vset = {
                self.vertex_of(f, i)
                for f in face_group
                for i in range(len(self.faces[f]))
            }
            eset = {
                self.faces[f][i].sym for f in face_group for i in range(len(self.faces[f]))
            }
            v, e, fc = len(vset), len(eset), len(face_group)
            chi = v - e + fc
            comps.append(
                Component(
                    faces=tuple(sorted(fset)),
                    vertex_count=v,
                    edge_count=e,
                    chi=chi,
                    orientable=self._orientable(face_group),
                )
            )
        return GluedSurface(
            vertex_count=self.vertex_count,
            edge_count=self.edge_count,
            face_count=self.face_count,
            components=tuple(comps),
        )

    # --- vertex links ---------------------------------------------------------

    def _corners_of(self, vertex: int) -> list[tuple[int, int]]:
        out = []
        for f, letters in enumerate(self.faces):
            for i in range(len(letters)):
                if self.vertex_of(f, i) == vertex:
                    out.append((f, i))
        return out

    def girth(self, vertex: int) -> Girth:
        """Corners around a vertex in cyclic walk order, with reversal flags.

        Walking around the vertex alternates corners and edge-ends; crossing
        a same-sign glued edge flips the traversal direction, which is what
        the ``reversed_`` flag records.
        """
        corners = self._corners_of(vertex)
        if not corners:
            raise SurfaceError(f"no such vertex {vertex}")
        start = min(corners)
        walk: list[GirthCorner] = []
        state = (start, False)  # (corner, entered_via_out_end)
        seen = set()
        while True:
            (f, i), rev = state
            if ((f, i), rev) in seen:
                break
            seen.add(((f, i), rev))
            n = len(self.faces[f])
            in_dart = (f, (i - 1) % n)
            out_dart = (f, i)
            in_letter = self.faces[f][in_dart[1]]
            out_letter = self.faces[f][i]
            if not rev:
                entry, exit_ = in_letter.inv(), out_letter
            else:
                entry, exit_ = out_letter, in_letter.inv()
            walk.append(
                GirthCorner(face=f, pos=i, entry=entry, exit_=exit_, reversed_=rev)
            )
            # leave the corner by crossing the dart on the exit side
            dart = out_dart if not rev else in_dart
            f2, i2 = self.partner[dart]
            g, g2 = self.faces[dart[0]][dart[1]], self.faces[f2][i2]
            n2 = len(self.faces[f2])
            if not rev:
                # leaving via the tail of out_dart
                if g.sign == -g2.sign:
                    state = ((f2, (i2 + 1) % n2), False)   # arrive at head
                else:
                    state = ((f2, i2), True)               # arrive at tail
            else:
                # leaving via the head of in_dart
                if g.sign == -g2.sign:
                    state = ((f2, i2), True)
                else:
                    state = ((f2, (i2 + 1) % n2), False)
            if state[0] == start and state[1] is False:
                break
        if len(walk) != len(corners):
            raise SurfaceError(
                f"vertex walk visited {len(walk)} corners, expected {len(corners)}"
            )
        return Girth(vertex=vertex, corners=tuple(walk))


def build_complex(words: Iterable[CyclicWord | Word]) -> SurfaceComplex:
    return SurfaceComplex(classify(words))


def glue(qset: QuadraticSet | Iterable[CyclicWord | Word]) -> GluedSurface:
    """Glue the discs and return counts, per-component chi/orientability/genus."""
    if not isinstance(qset, QuadraticSet):
        qset = classify(qset)
    surf = SurfaceComplex(qset).summary()
    # a one-polygon gluing has no disc-flip freedom: the letter signs decide
    # orientability.  (Multi-disc sets can classify non-orientable yet glue
    # orientably, e.g. {ab, ab} is a sphere.)
    if len(qset.words) == 1 and surf.kind != qset.kind:
        raise AssertionError(
            "internal: orientability of a one-word gluing disagrees with the letter signs"
        )
    return surf


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
    inserts: dict[int, list[tuple[int, Word]]] = {}
    for corner, psi in zip(girth.corners, psis):
        inserts.setdefault(corner.face, []).append((corner.pos, shift_word(psi, factor_offset)))
    out: list[Word] = []
    for f, letters in enumerate(complex_.faces):
        pieces: list[Generator] = []
        by_pos: dict[int, list[Word]] = {}
        for pos, w in inserts.get(f, []):
            by_pos.setdefault(pos, []).append(w)
        for i in range(len(letters)):
            for w in by_pos.get(i, []):
                pieces.extend(w.letters)
            pieces.append(letters[i])
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


def augment(girth: Girth, psis: Sequence[Word], names: Sequence[str] | None = None,
            w_name: str = "W") -> AugmentResult:
    """Collapse an extended vertex onto accumulated edge letters.

    With corners ``a_i^-1 psi_i a_{i+1}`` the rewrite is ``A_i^-1 A_{i+1}``
    for i < l and ``A_l^-1 W A_1``, where ``A_i = psi_1 ... psi_{i-1} a_i``
    and ``W = psi_1 ... psi_l``.
    """
    ell = girth.degree
    if len(psis) != ell:
        raise SurfaceError("need one psi per corner")
    a = [Word((c.entry,)) for c in girth.corners]
    names = tuple(names) if names is not None else tuple(f"A{i+1}" for i in range(ell))
    if len(names) != ell:
        raise SurfaceError("need one name per corner")
    alpha = Alphabet(names + (w_name,))
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
        if self.tuple_kind == ORIENTABLE:
            expected = self.genus - t + 1
        elif self.tuple_kind == NONORIENTABLE:
            expected = self.genus - 2 * t + 2
        else:
            raise SurfaceError(f"bad tuple kind {self.tuple_kind!r}")
        if expected < 0 or (self.tuple_kind == NONORIENTABLE and expected < 1):
            raise SurfaceError(
                f"declared extension genus {self.genus} forces tuple genus "
                f"{expected}, which is impossible"
            )
        if expected != self.tuple_genus:
            raise SurfaceError(
                f"tuple genus {self.tuple_genus} does not match declared "
                f"extension genus {self.genus} (expected {expected})"
            )

    @property
    def length(self) -> int:
        return sum(len(w) for w in self.words)


@dataclass(frozen=True)
class MultiForm:
    """A framing quadratic set with joint extensions on a vertex partition."""

    framing: QuadraticSet
    extensions: tuple[JointExtension, ...]
    framing_genus: int | None = None  # computed from the gluing when None

    def resolved_framing(self) -> tuple[str, int]:
        surf = glue(self.framing)
        k = surf.genus if self.framing_genus is None else self.framing_genus
        return self.framing.kind, k


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
