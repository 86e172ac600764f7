import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadeq.words import (
    Alphabet,
    Generator,
    Word,
    commutator,
    cyclic_normalize,
    cyclically_equal,
    is_proper_power,
    least_rotation,
    packed_cyclic_reduce,
    packed_inverse,
    packed_product,
    reduce,
    root_of,
    substitute,
    u_decompose,
)

AB = Alphabet(("a", "b", "c"))
a, b, c = AB.gen("a"), AB.gen("b"), AB.gen("c")


def W(*names):
    return AB.word(*names)


# --- reduction -------------------------------------------------------------

def test_reduce_cancellation():
    assert reduce([a, a.inv(), b]) == W("b")


def test_reduce_empty():
    assert reduce([]) == Word()
    assert len(Word()) == 0


def test_reduce_nested():
    assert reduce([a, b, b.inv(), a.inv(), c]) == W("c")


letters = st.tuples(st.integers(0, 2), st.sampled_from((1, -1))).map(
    lambda t: Generator(*t)
)
raw_words = st.lists(letters, max_size=12)


@given(raw_words)
def test_reduce_idempotent(seq):
    w = reduce(seq)
    assert reduce(w.letters) == w


@given(raw_words, raw_words)
def test_product_length_subadditive(s1, s2):
    u, v = reduce(s1), reduce(s2)
    assert len(u * v) <= len(u) + len(v)


@given(raw_words)
def test_inverse_involution(seq):
    w = reduce(seq)
    assert w.inverse().inverse() == w
    assert len(w * w.inverse()) == 0


# --- commutator ------------------------------------------------------------

def test_commutator_formula():
    lhs = commutator(W("a"), W("b"))
    assert lhs == W("-a", "-b", "a", "b")
    assert len(lhs) == 4


def test_commutator_self_trivial():
    assert commutator(W("a"), W("a")) == Word()


def test_commutator_ab_b():
    got = commutator(W("a", "b"), W("b"))
    assert got == W("-b", "-a", "-b", "a", "b", "b")
    assert len(got) == 6


@given(raw_words, raw_words)
def test_commutator_antisymmetry(s1, s2):
    x, y = reduce(s1), reduce(s2)
    assert commutator(x, y).inverse() == commutator(y, x)


# --- cyclic words ----------------------------------------------------------

def test_cyclic_strip_conjugation():
    assert cyclic_normalize(W("a", "b", "-a")) == cyclic_normalize(W("b"))


def test_cyclic_rotation_canonical():
    assert cyclic_normalize(W("b", "a")) == cyclic_normalize(W("a", "b"))
    assert cyclic_normalize(W("b", "a")).representative == W("a", "b")


def test_cyclic_reduce_then_rotate():
    assert cyclic_normalize(W("-a", "b", "a", "a")) == cyclic_normalize(W("a", "b"))


@given(raw_words, st.integers(0, 2), st.sampled_from((1, -1)))
def test_cyclic_conjugation_invariant(seq, sym, sign):
    w = reduce(seq)
    g = Word((Generator(sym, sign),))
    assert cyclic_normalize(g * w * g.inverse()) == cyclic_normalize(w)


def test_cyclically_equal():
    assert cyclically_equal(W("a", "b"), W("b", "a"))
    assert not cyclically_equal(W("a", "b"), W("a", "-b"))



# --- packed words ----------------------------------------------------------

@given(raw_words)
def test_pack_round_trip(seq):
    w = reduce(seq)
    assert Word.from_packed(w.packed) == w
    assert list(w.packed) == [2 * sym + (sign < 0) for sym, sign in w]


@given(raw_words)
def test_packed_inverse_is_the_word_inverse(seq):
    w = reduce(seq)
    assert packed_inverse(w.packed) == w.inverse().packed


@given(raw_words, raw_words, raw_words)
def test_packed_product_is_the_word_product(s1, s2, s3):
    u, v, w = reduce(s1), reduce(s2), reduce(s3)
    assert packed_product(u.packed, v.packed, w.packed) == (u * v * w).packed
    assert packed_product() == b""


@given(raw_words)
def test_packed_cyclic_reduce_is_the_word_one(seq):
    w = reduce(seq)
    core, u = w.cyclic_reduce()
    assert packed_cyclic_reduce(w.packed) == (core.packed, u.packed)


# --- an independent reference: free reduction on a stack of (sym, sign) -----

def _naive_reduce(pairs):
    out = []
    for sym, sign in pairs:
        if out and out[-1] == (sym, -sign):
            out.pop()
        else:
            out.append((sym, sign))
    return out


def _naive_inverse(pairs):
    return [(sym, -sign) for sym, sign in reversed(pairs)]


def _pairs(w):
    return [(g.sym, g.sign) for g in w]


def _unpacked(t):
    return [(p >> 1, -1 if p & 1 else 1) for p in t]


@given(raw_words)
def test_constructor_is_the_naive_reduction(seq):
    w = Word(seq)
    assert _pairs(w) == _naive_reduce(_pairs(seq))
    assert _unpacked(w.packed) == _pairs(w)


@given(raw_words, raw_words, raw_words)
def test_product_is_the_naive_reduction(s1, s2, s3):
    u, v, w = reduce(s1), reduce(s2), reduce(s3)
    expected = _naive_reduce(_pairs(s1) + _pairs(s2) + _pairs(s3))
    assert _pairs(u * v * w) == expected
    assert _unpacked(packed_product(u.packed, v.packed, w.packed)) == expected


@given(raw_words)
def test_inverse_is_the_naive_inverse(seq):
    w = reduce(seq)
    expected = _naive_reduce(_naive_inverse(_pairs(seq)))
    assert _pairs(w.inverse()) == expected
    assert _unpacked(packed_inverse(w.packed)) == expected


@given(raw_words, raw_words)
def test_cyclic_reduce_against_the_naive_reduction(seq, conj):
    # (core, u) is fixed by: w = u core u^-1 letter for letter, and core
    # cyclically reduced; conjugating by conj makes long u likely
    for pairs in (_pairs(seq), _pairs(conj) + _pairs(seq) + _naive_inverse(_pairs(conj))):
        w = _naive_reduce(pairs)
        word = Word(Generator(*p) for p in pairs)
        core, u = word.cyclic_reduce()
        packed_core, packed_u = packed_cyclic_reduce(word.packed)
        assert (_unpacked(packed_core), _unpacked(packed_u)) == (_pairs(core), _pairs(u))
        assert _pairs(u) + _pairs(core) + _naive_inverse(_pairs(u)) == w
        assert len(core) < 2 or _pairs(core)[0] != _naive_inverse(_pairs(core))[0]


@given(raw_words, raw_words, raw_words)
def test_substitute_is_the_naive_reduction(template, image_b, image_c):
    # b and c are assigned, a is fixed
    images = {1: _pairs(image_b), 2: _pairs(image_c)}
    expected = []
    for sym, sign in _pairs(template):
        img = images.get(sym, [(sym, 1)])
        expected += img if sign > 0 else _naive_inverse(img)
    got = substitute(reduce(template), {1: reduce(image_b), 2: reduce(image_c)})
    assert _pairs(got) == _naive_reduce(expected)


@given(raw_words, st.integers(-6, 6))
def test_power_is_the_repeated_product(seq, n):
    w = reduce(seq)
    expected = Word()
    for _ in range(abs(n)):
        expected = expected * (w if n > 0 else w.inverse())
    assert w ** n == expected
    base = _pairs(seq) if n > 0 else _naive_inverse(_pairs(seq))
    assert _pairs(w ** n) == _naive_reduce(base * abs(n))


def test_constructor_refuses_a_symbol_out_of_range():
    from quadeq.words import MAX_GENERATORS, AlphabetError

    assert len(Word((Generator(MAX_GENERATORS - 1, -1),))) == 1
    for sym in (MAX_GENERATORS, 149, -1):
        with pytest.raises(AlphabetError, match="at most 64 generators supported"):
            Word((Generator(sym, 1),))


def _least_rotation_naive(t):
    rotations = [t[i:] + t[:i] for i in range(len(t))]
    return rotations.index(min(rotations))


@given(raw_words, st.integers(1, 4))
def test_least_rotation_is_the_first_least(seq, k):
    t = reduce(seq).packed * k  # powers have several least rotations
    if t:
        assert least_rotation(t) == _least_rotation_naive(t)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_least_rotation_of_a_power_of_a_letter(k):
    t = W("b").packed * k
    assert least_rotation(t) == 0
    assert least_rotation(W("b", "a").packed * k) == 1

# --- powers and roots -------------------------------------------------------

def test_proper_power():
    assert is_proper_power(W("a", "a"))
    assert not is_proper_power(W("a", "b"))
    assert is_proper_power(W("a", "b", "a", "b"))


def test_root_of():
    r, k = root_of(W("a", "b", "a", "b"))
    assert r == W("a", "b") and k == 2


# --- U-decomposition --------------------------------------------------------

def test_u_decompose_flanked_run():
    w = W("a") * (W("b") ** 5) * W("a")
    d = u_decompose(w, W("b"))
    assert d.head == W("a", "b")
    assert len(d.blocks) == 1
    blk = d.blocks[0]
    assert (blk.eps, blk.run) == (1, 3)
    assert blk.tail == W("b", "a")
    assert d.reassemble() == w


def test_u_decompose_no_occurrence():
    w = W("a", "c", "a")
    d = u_decompose(w, W("b"))
    assert d.head == w and d.blocks == ()
    assert d.reassemble() == w


def test_u_decompose_pure_power():
    w = W("b") ** 5
    d = u_decompose(w, W("b"))
    assert d.head == W("b")
    assert d.blocks[0].eps == 1 and d.blocks[0].run == 3
    assert d.blocks[0].tail == W("b")
    assert d.reassemble() == w


def test_u_decompose_negative_run():
    w = W("a") * (W("b") ** -4) * W("c")
    d = u_decompose(w, W("b"))
    assert len(d.blocks) == 1
    assert d.blocks[0].eps == -1 and d.blocks[0].run == 2
    assert d.reassemble() == w


def test_u_decompose_rejects_bad_base():
    with pytest.raises(ValueError):
        u_decompose(W("a"), Word())
    with pytest.raises(ValueError):
        u_decompose(W("a"), W("b", "b"))
    with pytest.raises(ValueError):
        u_decompose(W("a"), W("b", "a", "-b"))


@given(raw_words, st.sampled_from(["a", "b", "ab"]))
@settings(max_examples=200)
def test_u_decompose_reassembles(seq, base):
    w = reduce(seq)
    u = W("a") if base == "a" else W("b") if base == "b" else W("a", "b")
    d = u_decompose(w, u)
    assert d.reassemble() == w


# --- substitution -----------------------------------------------------------

def test_substitute_cancel():
    # template x a with x -> a^-1 over combined alphabet (a,b,c=vars? use c as var)
    template = W("c", "a")
    assert substitute(template, {2: W("-a")}) == Word()


def test_substitute_commutator_identity():
    tmpl = commutator(W("b"), W("c"))
    got = substitute(tmpl, {1: W("b"), 2: W("a")})
    assert got == commutator(W("b"), W("a"))
    assert got == commutator(W("a"), W("b")).inverse()


def test_substitute_identity():
    w = W("a", "b", "a")
    assert substitute(W("c"), {2: w}) == w


def test_substitute_unassigned_error():
    from quadeq.words import UnassignedVariableError

    with pytest.raises(UnassignedVariableError):
        substitute(W("c"), {}, variables={2})


# --- alphabet / formatting ---------------------------------------------------

def test_format_powers():
    w = W("a", "b", "b", "b", "-a")
    assert AB.format(w) == "a b^3 a^-1"
    assert AB.format(Word()) == "1"


def test_alphabet_limits():
    with pytest.raises(Exception):
        Alphabet(tuple(f"g{i}" for i in range(65)))
    with pytest.raises(Exception):
        Alphabet(("a", "a"))
