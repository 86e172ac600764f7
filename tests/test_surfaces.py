import random

import pytest

from quadeq.surfaces import (
    NONORIENTABLE,
    ORIENTABLE,
    JointExtension,
    MultiForm,
    NotQuadraticError,
    SurfaceError,
    augment,
    classify,
    extend_vertex,
    extension_product,
    genus_formula,
    glue,
    merge_alphabets,
    multiform_genus,
    shift_word,
)
from quadeq.words import Alphabet, Word, cyclic_normalize, substitute


def words_over(names, *texts):
    al = Alphabet(tuple(names))
    out = []
    for t in texts:
        out.append(al.word(*t.split()))
    return al, out


# --- classify -----------------------------------------------------------------

def test_classify_torus_word():
    _, ws = words_over("ab", "a b -a -b")
    assert classify(ws).kind == ORIENTABLE


def test_classify_projective():
    _, ws = words_over("a", "a a")
    assert classify(ws).kind == NONORIENTABLE


def test_classify_cross_words():
    _, ws = words_over("ab", "a b", "-a b")
    assert classify(ws).kind == NONORIENTABLE


def test_classify_rejects():
    _, ws = words_over("ab", "a b a")
    with pytest.raises(NotQuadraticError):
        classify(ws)


# --- glue ----------------------------------------------------------------------

def test_glue_torus():
    _, ws = words_over("ab", "a b -a -b")
    s = glue(ws)
    assert (s.vertex_count, s.edge_count, s.face_count) == (1, 2, 1)
    assert s.chi == 0 and s.orientable and s.genus == 1


def test_glue_projective_plane():
    _, ws = words_over("a", "a a")
    s = glue(ws)
    assert (s.vertex_count, s.edge_count, s.face_count) == (1, 1, 1)
    assert s.chi == 1 and not s.orientable and s.genus == 1


def test_unreduced_boundary_rejected():
    # a a^-1 collapses under free reduction, so it cannot label a disc
    al = Alphabet(("a",))
    with pytest.raises(NotQuadraticError):
        classify([Word()])


def test_glue_klein():
    _, ws = words_over("ab", "a b a -b")
    s = glue(ws)
    assert s.chi == 0 and not s.orientable and s.genus == 2


def test_glue_two_discs_sphere():
    _, ws = words_over("a", "a", "-a")
    s = glue(ws)
    assert s.face_count == 2 and s.edge_count == 1
    assert s.chi == 2 and s.genus == 0


def test_glue_disjoint_sum():
    _, ws = words_over("abc", "a b -a -b", "c c")
    s = glue(ws)
    assert len(s.components) == 2
    assert s.genus == 2  # torus + projective plane
    kinds = sorted(c.orientable for c in s.components)
    assert kinds == [False, True]


def test_chi_additive_disjoint():
    _, ws1 = words_over("ab", "a b -a -b")
    _, ws2 = words_over("cd", "c d c -d")
    s1, s2 = glue(ws1), glue(ws2)
    _, both = words_over("abcd", "a b -a -b", "c d c -d")
    s12 = glue(both)
    assert s12.chi == s1.chi + s2.chi


def test_genus2_orientable():
    _, ws = words_over("abcd", "a b -a -b c d -c -d")
    s = glue(ws)
    assert s.chi == -2 and s.orientable and s.genus == 2


# --- girth ----------------------------------------------------------------------

def test_girth_torus_single_vertex():
    al, ws = words_over("ab", "a b -a -b")
    cx = glue(ws)
    assert cx.vertices() == [0]
    g = cx.girth(0)
    assert g.degree == 4


def test_girth_projective():
    al, ws = words_over("a", "a a")
    cx = glue(ws)
    assert cx.vertex_count == 1
    assert cx.girth(0).degree == 2


def test_girth_no_degree_one():
    # every edge has two endpoints-incidences; a vertex of degree 1 cannot occur
    al, ws = words_over("ab", "a b -a -b")
    cx = glue(ws)
    for v in cx.vertices():
        assert cx.girth(v).degree >= 2


# --- extension (the worked vertex example) ---------------------------------------

def test_extend_vertex_worked_example():
    # word A B^-1 A C^-1 B C^-1 over edges A,B,C; insert three elements at
    # one vertex and reproduce A B^-1 p3 A C^-1 p2 B C^-1 p1.
    edges, ws = words_over("ABC", "A -B A -C B -C")
    cx = glue(ws)
    factor = Alphabet(("p1", "p2", "p3"))
    combined, off = merge_alphabets(edges, factor)

    # the slots after B^-1 (pos 2), after the first C^-1 (pos 4) and at the
    # wrap (pos 0) must share one vertex
    v = cx.vertex_of(0, 2)
    assert cx.vertex_of(0, 4) == v
    assert cx.vertex_of(0, 0) == v
    girth = cx.girth(v)
    assert girth.degree == 3

    want = {0: factor.word("p1"), 2: factor.word("p3"), 4: factor.word("p2")}
    psis = [want[c.pos] for c in girth.corners]
    out = extend_vertex(cx, v, psis, factor_offset=off)
    expect = combined.word("A", "-B", "p3", "A", "-C", "p2", "B", "-C", "p1")
    assert cyclic_normalize(out[0]) == cyclic_normalize(expect)

    # the reversal flags make exactly one of the three contribute inverted
    flags = [c.reversed_ for c in girth.corners]
    assert sum(flags) in (1, 2)  # global walk orientation may flip all three
    prod = extension_product(girth, psis)
    assert len(prod) == 3


def test_extend_trivial_psis_identity():
    edges, ws = words_over("ab", "a b -a -b")
    cx = glue(ws)
    v = cx.vertices()[0]
    deg = cx.girth(v).degree
    out = extend_vertex(cx, v, [Word()] * deg)
    assert [cyclic_normalize(w) for w in out] == [cyclic_normalize(w.representative) for w in cx.qset.words]


def test_extend_cancelling_pair_keeps_surface():
    # orientable sphere {a b^-1}, {b a^-1}: two degree-2 vertices, both
    # corners forward.  Inserting w, w^-1 around one vertex is a trivial
    # decoration: the glued invariants stay those of the sphere.
    edges, ws = words_over("ab", "a -b", "b -a")
    cx = glue(ws)
    s0 = glue(ws)
    assert s0.chi == 2 and s0.orientable
    v = cx.vertices()[0]
    girth = cx.girth(v)
    assert girth.degree == 2
    assert not any(c.reversed_ for c in girth.corners)
    factor = Alphabet(("w",))
    combined, off = merge_alphabets(edges, factor)
    psis = [factor.word("w"), factor.word("-w")]
    assert extension_product(girth, psis) == Word()
    out = extend_vertex(cx, v, psis, factor_offset=off)
    s1 = glue(out)
    assert s1.chi == s0.chi
    assert s1.orientable == s0.orientable


def test_extend_cancelling_pair_reversed_corner():
    # on the projective plane the vertex walk reverses at one corner, so the
    # pair that cancels around the vertex is (w, w): the walk reads the
    # second insertion backwards.
    edges, ws = words_over("a", "a a")
    cx = glue(ws)
    v = cx.vertices()[0]
    girth = cx.girth(v)
    assert girth.degree == 2
    assert sum(c.reversed_ for c in girth.corners) == 1
    factor = Alphabet(("w",))
    combined, off = merge_alphabets(edges, factor)
    psis = [factor.word("w"), factor.word("w")]
    assert extension_product(girth, psis) == Word()
    out = extend_vertex(cx, v, psis, factor_offset=off)
    s0, s1 = glue(ws), glue(out)
    assert s1.chi == s0.chi
    assert s1.orientable == s0.orientable


def test_extend_arity_mismatch():
    edges, ws = words_over("a", "a a")
    cx = glue(ws)
    with pytest.raises(SurfaceError):
        extend_vertex(cx, cx.vertices()[0], [Word()])


# --- augmentation -----------------------------------------------------------------

def test_augment_shapes_and_roundtrip():
    # degree-4 extended vertex: corners a1^-1 p1 a2, ..., a4^-1 p4 a1
    edges, ws = words_over("abcd", "a b -a -b c d -c -d")
    cx = glue(ws)
    v = max(cx.vertices(), key=lambda u: cx.girth(u).degree)
    girth = cx.girth(v)
    ell = girth.degree
    factor = Alphabet(tuple(f"p{i+1}" for i in range(ell)))
    combined, off = merge_alphabets(edges, factor)
    psis = [shift_word(factor.word(f"p{i+1}"), off) for i in range(ell)]

    res = augment(girth, psis)
    assert len(res.corner_words) == ell
    # substituting the definitions back reproduces the extended corners
    amap = {i: res.defs[i] for i in range(ell)}
    amap[ell] = res.w_def
    for i, cw in enumerate(res.corner_words):
        got = substitute(cw, amap)
        a_i = Word((girth.corners[i].entry,))
        a_next = Word((girth.corners[(i + 1) % ell].entry,))
        expect = a_i.inverse() * psis[i] * a_next
        assert got == expect


def test_augment_degree_one_shape():
    # l = 1: single corner becomes A1^-1 W A1
    from quadeq.surfaces import Girth, GirthCorner
    from quadeq.words import Generator

    g = Girth(vertex=0, corners=(GirthCorner(0, 0, Generator(0, 1), Generator(0, 1), False),))
    res = augment(g, [Word((Generator(5, 1),))])
    cw = res.corner_words[0]
    assert len(cw) == 3
    assert res.alphabet.format(cw) == "A1^-1 W A1"


# --- genus formulas ----------------------------------------------------------------

def test_genus_formula_cases():
    assert genus_formula(2, 15, 7, 1) == 15 - 7 - 2 + 2
    assert genus_formula(1, 1, 1, 1) == 0
    with pytest.raises(SurfaceError):
        genus_formula(4, 4, 1, 1)  # odd numerator
    with pytest.raises(SurfaceError):
        genus_formula(5, 0, 0, 0)


def _random_quadratic_set(rng, n_edges, n_words, orientable):
    """Random quadratic set (as raw letter words), retried until valid."""
    from quadeq.words import Generator

    while True:
        slots = []
        for sym in range(n_edges):
            if orientable:
                signs = [1, -1]
            else:
                signs = rng.choice([[1, 1], [1, -1], [-1, -1]])
            slots.append(Generator(sym, signs[0]))
            slots.append(Generator(sym, signs[1]))
        rng.shuffle(slots)
        cuts = sorted(rng.sample(range(1, len(slots)), n_words - 1)) if n_words > 1 else []
        pieces = []
        prev = 0
        for c in cuts + [len(slots)]:
            pieces.append(slots[prev:c])
            prev = c
        words = [Word(p) for p in pieces]
        if any(len(w) != len(p) for w, p in zip(words, pieces)):
            continue  # free reduction ate letters: resample
        if any(not w.is_cyclically_reduced() or len(w) == 0 for w in words):
            continue
        try:
            q = classify(words)
        except NotQuadraticError:
            continue
        if orientable and q.kind != ORIENTABLE:
            continue
        if not orientable and q.kind != NONORIENTABLE:
            continue
        return words


def _filled_surface_genus(u_words, carrier_orientable, k, edge_names):
    """Glue the carrier-with-holes polygon.

    One word ``H * prod_{j<t} z_j^-1 u_j z_j * u_t``: the genus part H plus
    the hole boundaries, the last one unconjugated so the polygon word stays
    cyclically reduced even when k = 0.
    """
    from quadeq.words import Generator

    t = len(u_words)
    n_edges = len(edge_names)
    # fresh symbols after the u-alphabet: handles/squares then conjugators
    parts = []
    nxt = n_edges
    if carrier_orientable:
        for _ in range(k):
            x, y = Generator(nxt, 1), Generator(nxt + 1, 1)
            nxt += 2
            parts.extend([x.inv(), y.inv(), x, y])
    else:
        for _ in range(k):
            x = Generator(nxt, 1)
            nxt += 1
            parts.extend([x, x])
    for u in u_words[:-1]:
        z = Generator(nxt, 1)
        nxt += 1
        parts.append(z.inv())
        parts.extend(u.letters)
        parts.append(z)
    parts.extend(u_words[-1].letters)
    sigma = Word(parts)
    assert len(sigma) == len(parts), "polygon word must not reduce"
    return glue([sigma])


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_genus_formula_matches_gluing(case):
    rng = random.Random(1000 + case)
    carrier_orientable = case in (1, 3)
    u_orientable = case in (1, 4)
    checked = 0
    while checked < 100:
        n_edges = rng.randint(2, 12)
        t = rng.randint(1, min(3, n_edges))
        u_words = _random_quadratic_set(rng, n_edges, t, u_orientable)
        u_surf = glue(u_words)
        if len(u_surf.components) != 1:
            continue
        # the case split is about the glued surfaces; multi-disc sets with a
        # same-sign letter can still glue orientably (disc flips), skip those
        if u_surf.orientable != u_orientable:
            continue
        if carrier_orientable:
            k = rng.randint(0, 3)
        else:
            k = rng.randint(1, 3)
        filled = _filled_surface_genus(u_words, carrier_orientable, k, range(n_edges))
        assert len(filled.components) == 1
        n = filled.genus
        # check the filled surface has the orientability the case assumes
        if case == 1:
            assert filled.orientable
        else:
            assert not filled.orientable
        got = genus_formula(case, n, k, t)
        assert got == u_surf.genus, (
            f"case {case}: n={n} k={k} t={t} expected {u_surf.genus} got {got}"
        )
        checked += 1


# --- the vertex-link walk -------------------------------------------------------------

def _random_complexes(seed, count):
    """Seeded random quadratic sets of both kinds: 1-7 edges, 1-4 faces."""
    rng = random.Random(seed)
    for k in range(count):
        orientable = k % 2 == 0
        n_edges = rng.randint(1, 7)
        # a a^-1 alone is not cyclically reduced, so one orientable edge needs two faces
        n_words = rng.randint(2 if orientable and n_edges == 1 else 1, min(4, 2 * n_edges))
        yield glue(_random_quadratic_set(rng, n_edges, n_words, orientable))


def test_link_walk_places_every_corner_once():
    for cx in _random_complexes(11, 400):
        girths = [cx.girth(v) for v in cx.vertices()]
        corners = [(c.face, c.pos) for g in girths for c in g.corners]
        assert sorted(corners) == [(f, i) for f, w in enumerate(cx.faces) for i in range(len(w))]
        assert sum(g.degree for g in girths) == sum(len(w) for w in cx.faces)
        for g in girths:
            assert all(cx.vertex_of(c.face, c.pos) == g.vertex for c in g.corners)


def test_link_walk_steps_cross_glued_edges():
    # consecutive girth corners: the walk leaves the first across the dart on
    # its exit side and enters the next across that dart's glued partner,
    # turning exactly when the two letters have the same sign
    for cx in _random_complexes(12, 400):
        for v in cx.vertices():
            corners = cx.girth(v).corners
            assert not corners[0].reversed_
            for c, nxt in zip(corners, corners[1:] + corners[:1]):
                n, n2 = len(cx.faces[c.face]), len(cx.faces[nxt.face])
                out = (c.face, (c.pos - 1) % n if c.reversed_ else c.pos)
                into = (nxt.face, nxt.pos if nxt.reversed_ else (nxt.pos - 1) % n2)
                g, h = cx.faces[out[0]][out[1]], cx.faces[into[0]][into[1]]
                assert out != into and g.sym == h.sym
                assert nxt.reversed_ == (c.reversed_ != (g.sign == h.sign))
                assert c.exit_ == nxt.entry


def test_vertices_and_components_numbered_by_least_corner_and_face():
    for cx in _random_complexes(13, 400):
        least = [min((c.face, c.pos) for c in cx.girth(v).corners) for v in cx.vertices()]
        assert all(a < b for a, b in zip(least, least[1:]))
        comps = cx.components
        assert all(a.faces[0] < b.faces[0] for a, b in zip(comps, comps[1:]))
        assert sorted(f for c in comps for f in c.faces) == list(range(len(cx.faces)))
        for comp in comps:
            corners = [(f, i) for f in comp.faces for i in range(len(cx.faces[f]))]
            v = len({cx.vertex_of(f, i) for f, i in corners})
            e = len({cx.faces[f][i].sym for f, i in corners})
            assert (comp.vertex_count, comp.edge_count) == (v, e)
            assert comp.chi == v - e + len(comp.faces)
            assert not comp.orientable or comp.chi % 2 == 0


# --- joint extensions / multi-forms -------------------------------------------------

def test_joint_extension_validation():
    al = Alphabet(("u", "v"))
    JointExtension((0, 1), (al.word("u"), al.word("v")), genus=4,
                   tuple_kind=ORIENTABLE, tuple_genus=3)
    with pytest.raises(SurfaceError):
        JointExtension((0, 1), (al.word("u"), al.word("v")), genus=0,
                       tuple_kind=ORIENTABLE, tuple_genus=3)
    with pytest.raises(SurfaceError):
        # non-orientable tuple genus would need to be g - 2t + 2 = 0 < 1
        JointExtension((0, 1), (al.word("u"), al.word("v")), genus=2,
                       tuple_kind=NONORIENTABLE, tuple_genus=0)


def test_multiform_no_extensions():
    _, ws = words_over("ab", "a b -a -b")
    m = MultiForm(framing=classify(ws), extensions=())
    assert multiform_genus(m) == 1


def test_multiform_case1():
    _, ws = words_over("ab", "a b -a -b")
    al = Alphabet(("u",))
    ext = JointExtension((0,), (al.word("u"),), genus=2,
                         tuple_kind=ORIENTABLE, tuple_genus=2)
    m = MultiForm(framing=classify(ws), extensions=(ext,))
    assert multiform_genus(m) == 3


@pytest.mark.parametrize("words", [("a b", "a b"), ("a -b", "b -a")])
def test_multiform_framing_kind_is_the_glued_surfaces(words):
    # both framings glue to a sphere; {a b, a b} has letters of one sign
    # only, which alone would call it non-orientable
    _, ws = words_over("ab", *words)
    al = Alphabet(("u",))
    ext = JointExtension((0,), (al.word("u"),), genus=2,
                         tuple_kind=ORIENTABLE, tuple_genus=2)
    m = MultiForm(framing=classify(ws), extensions=(ext,))
    assert m.resolved_framing() == (ORIENTABLE, 0)
    assert multiform_genus(m) == 2


def test_multiform_paper_style_example_total_15():
    names = ("A", "B", "C", "D", "E", "F", "G1", "G2", "H1", "H2",
             "O1", "O2", "I1", "I2", "Z")
    al, ws = words_over(
        names,
        "A E D -C B -A F B E G1 G2 H1 O2 -O1 I1",
        "C H2 O2 Z G2 I2 I1 F",
        "D H2 -H1 I2 O1 Z G1",
    )
    q = classify(ws)
    assert q.kind == NONORIENTABLE
    surf = glue(ws)
    assert len(surf.components) == 1
    assert not surf.orientable
    # frozen: the printed words glue to non-orientable genus 5
    # (V,E,F of the complex: 9,15,3, so chi = -3)
    assert (surf.vertex_count, surf.edge_count, surf.face_count) == (9, 15, 3)
    assert surf.genus == 5

    cx = glue(ws)
    # the two decorated vertices: one carries the three xi-slots of word 1,
    # the other the psi-slots (word1 pos 3, word2 pos 1, word3 pos 1)
    v_xi = cx.vertex_of(0, 1)
    assert cx.vertex_of(0, 5) == v_xi and cx.vertex_of(0, 8) == v_xi
    assert cx.girth(v_xi).degree == 3
    v_psi = cx.vertex_of(0, 3)
    assert cx.vertex_of(1, 1) == v_psi and cx.vertex_of(2, 1) == v_psi
    assert cx.girth(v_psi).degree == 3

    # the declared bookkeeping: a genus-4 joint extension on those two
    # vertices (orientable pair of tuple genus 3) over a non-orientable
    # framing of declared genus 7 totals 15 by the case-4 rule k + 2*sum(g)
    ual = Alphabet(("u1", "u2"))
    ext = JointExtension(
        (v_xi, v_psi), (ual.word("u1"), ual.word("u2")),
        genus=4, tuple_kind=ORIENTABLE, tuple_genus=3,
    )
    m = MultiForm(framing=q, extensions=(ext,), framing_genus=7)
    assert multiform_genus(m) == 15
