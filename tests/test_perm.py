import pytest

from sinklab.errors import InvalidPermutation
from sinklab.perm import Permutation, format_cycles, parse_cycles

from oracles import compose, inverse


def test_identity():
    e = Permutation.identity(4)
    assert e.image == (1, 2, 3, 4)
    assert format_cycles(e) == "e"


def test_parse_format_round_trip():
    for text in ["(1 2 3)", "(1 2)(3 4)", "(1 3 5)(2 4)", "e"]:
        p = parse_cycles(text, 5)
        assert format_cycles(p) == text if text != "e" else True
        assert parse_cycles(format_cycles(p), 5) == p


def test_cycles_canonical_form():
    p = parse_cycles("(3 1 2)", 3)  # same cycle written from 3
    assert format_cycles(p) == "(1 2 3)"


def test_compose_is_left_to_right():
    a = parse_cycles("(1 2 3)", 3)
    b = parse_cycles("(1 2)", 3)
    # apply a then b: 1 -> 2 -> 1, 2 -> 3 -> 3, 3 -> 1 -> 2
    assert format_cycles(compose(a, b)) == "(2 3)"
    assert format_cycles(compose(b, a)) == "(1 3)"


def test_inverse():
    p = parse_cycles("(1 2 3 4)", 4)
    assert compose(p, inverse(p)) == Permutation.identity(4)
    assert inverse(p).image == (4, 1, 2, 3)


def test_apply():
    p = parse_cycles("(1 2)(3 4 5)", 5)
    assert p.image == (2, 1, 4, 5, 3)


def test_rejects_non_bijection():
    with pytest.raises(InvalidPermutation):
        Permutation(3, (1, 1, 2))
    with pytest.raises(InvalidPermutation):
        Permutation(3, (1, 2))


def test_parse_errors():
    with pytest.raises(InvalidPermutation):
        parse_cycles("(1 2", 3)
    with pytest.raises(InvalidPermutation):
        parse_cycles("(1 2)(2 3)", 3)  # repeated point
    with pytest.raises(InvalidPermutation):
        parse_cycles("(1 9)", 3)  # out of range
    with pytest.raises(InvalidPermutation):
        parse_cycles("(1 x)", 3)
