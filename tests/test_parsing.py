import pytest

from quadeq.parsing import WordSyntaxError, parse_word
from quadeq.words import Alphabet, Word, commutator

AB = Alphabet(("a", "b", "x"))


def test_basic_juxtaposition():
    assert parse_word("a b", AB) == AB.word("a", "b")


def test_powers():
    assert parse_word("a b^-3 a^-1", AB) == AB.word("a", "-b", "-b", "-b", "-a")
    assert parse_word("b^0", AB) == Word()


def test_commutator_sugar():
    assert parse_word("[a,b]", AB) == commutator(AB.word("a"), AB.word("b"))
    assert parse_word("[a b, x]", AB) == commutator(AB.word("a", "b"), AB.word("x"))


def test_grouping_power():
    assert parse_word("(a b)^2", AB) == AB.word("a", "b", "a", "b")
    assert parse_word("(a b)^-1", AB) == AB.word("-b", "-a")


def test_one_literal():
    assert parse_word("1", AB) == Word()
    assert parse_word("a 1 b", AB) == AB.word("a", "b")


def test_reduction_happens():
    assert parse_word("a a^-1", AB) == Word()


def test_comments_and_whitespace():
    assert parse_word("  a   b # trailing comment", AB) == AB.word("a", "b")


def test_undeclared_symbol():
    with pytest.raises(WordSyntaxError) as ei:
        parse_word("a q", AB)
    assert "q" in str(ei.value)
    assert ei.value.pos == 2


def test_trailing_garbage():
    with pytest.raises(WordSyntaxError):
        parse_word("a )", AB)
    with pytest.raises(WordSyntaxError):
        parse_word("[a,b] ]", AB)


def test_bad_exponent():
    with pytest.raises(WordSyntaxError):
        parse_word("a^b", AB)


def test_nested():
    w = parse_word("([a,b] x)^2", AB)
    inner = commutator(AB.word("a"), AB.word("b")) * AB.word("x")
    assert w == inner * inner


def test_a_long_power_parses_in_one_step():
    w = parse_word("(a b)^100000", AB)
    assert len(w) == 200_000
    assert w.subword(0, 4) == parse_word("a b a b", AB) and w[-1] == AB.gen("b")

