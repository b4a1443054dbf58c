import time

import pytest

from tensebench.sparam import (
    S_ALL_ODD,
    S_EMPTY,
    SParameter,
    default_family,
    odds_without,
    parse_sparam,
)


def test_membership_basics():
    s = SParameter(frozenset({3, 7}), 7, False)
    assert s.contains(3) and s.contains(7)
    assert not s.contains(5) and not s.contains(9) and not s.contains(4)
    assert not s.contains(1)


def test_pattern_includes_evens():
    s = S_EMPTY
    assert all(s.in_pattern(n) for n in (2, 4, 6, 100))
    assert not any(s.in_pattern(n) for n in (1, 3, 5, 99))


def test_all_odd_contains_three():
    assert S_ALL_ODD.contains(3)
    assert S_ALL_ODD.contains(101)
    assert all(S_ALL_ODD.in_pattern(n) for n in range(2, 40))
    assert not S_ALL_ODD.in_pattern(1)


def test_odds_without():
    s = odds_without({5})
    assert s.contains(3) and s.contains(7) and s.contains(9)
    assert not s.contains(5)


def test_bound_normalization():
    wide = SParameter(frozenset({3}), 9, False)
    narrow = SParameter(frozenset({3}), 3, False)
    assert wide == narrow
    cofinite = SParameter(frozenset({3, 5, 7}), 7, True)
    assert cofinite == S_ALL_ODD


def test_huge_bound_with_tail_out_is_canonical_at_once():
    # the bound drops to the largest member directly, not two at a time
    started = time.perf_counter()
    s = parse_sparam(f"{{3}} bound={10**8 + 1}")
    assert time.perf_counter() - started < 1.0
    assert s == parse_sparam("{3}")
    assert s.bound == 3


def test_invalid_members_rejected():
    with pytest.raises(ValueError):
        SParameter(frozenset({4}), 5, False)
    with pytest.raises(ValueError):
        SParameter(frozenset({9}), 5, False)
    with pytest.raises(ValueError):
        SParameter(frozenset(), 1, False)


@pytest.mark.parametrize(
    "text,member,nonmember",
    [
        ("empty", None, 3),
        ("{3}", 3, 5),
        ("{3,7} tail=out bound=9", 7, 9),
        ("O", 3, None),
        ("O\\{5}", 7, 5),
        ("S = {3}", 3, 5),
    ],
)
def test_parse(text, member, nonmember):
    s = parse_sparam(text)
    if member is not None:
        assert s.contains(member)
    if nonmember is not None:
        assert not s.contains(nonmember)


def test_parse_roundtrip():
    for label, s in default_family():
        assert parse_sparam(str(s)) == s


def test_off_pattern_helpers():
    s = parse_sparam("{3}")
    members, infinite = s.off_pattern_from(1)
    assert members[0] == 1 and infinite
    assert s.off_pattern_min(4) == 5
    o = parse_sparam("O")
    members, infinite = o.off_pattern_from(2)
    assert members == () and not infinite
    assert o.off_pattern_min(2) is None
    assert o.off_pattern_min(1) == 1
