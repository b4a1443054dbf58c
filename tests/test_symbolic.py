import random

import pytest

from conftest import random_element, raw_basis_member
from tensebench import symbolic as sym
from tensebench.frames import TruncationSpec, VertexId
from tensebench.sparam import S_EMPTY, parse_sparam


def B(kind, p, m=None):
    return sym.BasisSet(kind, p, m)


class TestBasis:
    def test_singleton(self):
        x = sym.basis(S_EMPTY, B("A", 0, 2))
        assert sym.member(x, VertexId(0, 2))
        assert not sym.member(x, VertexId(0, 3))
        assert sym.cardinality(x).count == 1

    def test_pattern_row_under_empty(self):
        x = sym.basis(S_EMPTY, B("S", 0, 1))
        for n in range(1, 30):
            assert sym.member(x, VertexId(0, n)) == (n % 2 == 0)

    def test_down_set(self):
        x = sym.basis(S_EMPTY, B("D", 1))
        assert sym.member(x, VertexId(1, 7)) and sym.member(x, VertexId(-5, 2))
        assert not sym.member(x, VertexId(2, 1))

    def test_degenerate_off_row_is_empty(self):
        o = parse_sparam("O")
        assert sym.is_empty(sym.basis(o, B("Sbar", 0, 2)))


class TestBooleanOps:
    def test_complement_of_up_set(self):
        x = sym.complement(sym.basis(S_EMPTY, B("U", 0)))
        assert sym.is_equal(x, sym.basis(S_EMPTY, B("D", -1)))

    def test_pattern_tail_intersection(self):
        a = sym.basis(S_EMPTY, B("S", 0, 2))
        b = sym.basis(S_EMPTY, B("S", 0, 5))
        assert sym.is_equal(sym.intersect(a, b), sym.basis(S_EMPTY, B("S", 0, 5)))

    def test_band_intersection(self):
        got = sym.intersect(sym.basis(S_EMPTY, B("U", 1)), sym.basis(S_EMPTY, B("D", 2)))
        want = sym.union(sym.basis(S_EMPTY, B("V", 1)), sym.basis(S_EMPTY, B("V", 2)))
        assert sym.is_equal(got, want)

    def test_singleton_complement(self):
        got = sym.complement(sym.basis(S_EMPTY, B("A", 0, 2)))
        want = sym.empty_set(S_EMPTY)
        for b in (B("A", 0, 1), B("U", 1), B("D", -1), B("S", 0, 3), B("Sbar", 0, 3)):
            want = sym.union(want, sym.basis(S_EMPTY, b))
        assert sym.is_equal(got, want)

    def test_row_assembles_from_parts(self, family_param):
        # derived: membership oracle over indices up to past the bound
        _, s = family_param
        got = sym.union(
            sym.basis(s, B("A", 0, 1)),
            sym.union(sym.basis(s, B("S", 0, 1)), sym.basis(s, B("Sbar", 0, 1))),
        )
        assert sym.is_equal(got, sym.basis(s, B("V", 0)))
        for n in range(1, s.bound + 3):
            assert sym.member(got, VertexId(0, n))

    def test_mixed_parameters_rejected(self):
        with pytest.raises(ValueError):
            sym.union(sym.basis(S_EMPTY, B("A", 0, 1)),
                      sym.basis(parse_sparam("{3}"), B("A", 0, 1)))


class TestMember:
    def test_down_set_member(self):
        assert sym.member(sym.basis(S_EMPTY, B("D", 0)), VertexId(-3, 7))

    def test_index_threshold(self):
        s = parse_sparam("{3}")
        x = sym.basis(s, B("S", 0, 4))
        assert not sym.member(x, VertexId(0, 3))
        assert sym.member(x, VertexId(0, 4))

    def test_off_pattern_member(self):
        s = parse_sparam("{3}")
        x = sym.basis(s, B("Sbar", 0, 2))
        assert sym.member(x, VertexId(0, 5))
        assert not sym.member(x, VertexId(0, 3))
        assert not sym.member(x, VertexId(0, 1))


class TestCanonicalSoundness:
    def test_validation_rejects_rows_off_the_invariant(self):
        o = parse_sparam("O")
        one_row = [(S_EMPTY, sym.INDEX_ONE_ROW), (o, sym.FULL_ROW), (o, sym.Row(-5, -1))]
        # index 1 in the pattern part, index 2 or bit 0 in the off-pattern
        # part, and parts of different signs under an all-in tail
        bad = [(S_EMPTY, sym.Row(0b10, 0)), (S_EMPTY, sym.Row(0, 0b100)),
               (S_EMPTY, sym.Row(0, 1)), (o, sym.Row(-1, 0)), (o, sym.Row(0, -1))]
        for s, row in one_row:
            assert sym.validate_canonical(sym.SymbolicSet(s, False, False, 0, (row,)))
        for s, row in bad:
            with pytest.raises(ValueError):
                sym.validate_canonical(sym.SymbolicSet(s, False, False, 0, (row,)))

    def test_membership_matches_raw_definitions(self, family_param):
        _, s = family_param
        rng = random.Random(0xB5)
        probes = [
            VertexId(rng.randint(-5, 5), rng.randint(1, max(20, s.bound + 8)))
            for _ in range(500)
        ]
        for _ in range(20):
            x, parts = random_element(rng, s)
            sym.validate_canonical(x)
            decomposed = sym.decompose_to_basis(x)
            rebuilt = sym.empty_set(s)
            for b in decomposed:
                rebuilt = sym.union(rebuilt, sym.basis(s, b))
            assert sym.is_equal(rebuilt, x)
            for vtx in probes:
                raw = any(raw_basis_member(s, b, vtx) for b in parts)
                assert sym.member(x, vtx) == raw
                via_parts = any(raw_basis_member(s, b, vtx) for b in decomposed)
                assert via_parts == raw

    def test_equal_sets_have_equal_forms(self, family_param):
        _, s = family_param
        # the same set assembled in two different orders
        pieces = [B("S", 0, 3), B("A", 0, 1), B("D", -2), B("Sbar", 0, 2)]
        one = sym.empty_set(s)
        for b in pieces:
            one = sym.union(one, sym.basis(s, b))
        other = sym.empty_set(s)
        for b in reversed(pieces):
            other = sym.union(other, sym.basis(s, b))
        assert one == other


class TestBooleanLaws:
    def test_de_morgan_involution_absorption(self, family_param):
        _, s = family_param
        rng = random.Random(0xB5)
        for _ in range(60):
            x, _ = random_element(rng, s)
            y, _ = random_element(rng, s)
            assert sym.is_equal(
                sym.complement(sym.union(x, y)),
                sym.intersect(sym.complement(x), sym.complement(y)),
            )
            assert sym.is_equal(sym.complement(sym.complement(x)), x)
            assert sym.is_equal(sym.union(x, sym.intersect(x, y)), x)
            assert sym.is_equal(sym.intersect(x, sym.union(x, y)), x)


class TestCardinality:
    def test_singleton(self):
        assert sym.cardinality(sym.basis(S_EMPTY, B("A", 0, 3))).count == 1

    def test_pattern_tail_infinite(self):
        assert not sym.cardinality(sym.basis(S_EMPTY, B("S", 0, 1))).is_finite

    def test_empty_off_tail(self):
        o = parse_sparam("O")
        assert sym.cardinality(sym.basis(o, B("Sbar", 0, 2))).count == 0


class TestLevels:
    def test_down_set_max(self):
        assert sym.max_level(sym.basis(S_EMPTY, B("D", 2))) == sym.LevelExtent("level", 2)

    def test_up_set_unbounded(self):
        assert sym.max_level(sym.basis(S_EMPTY, B("U", 0))).kind == "unbounded"

    def test_empty(self):
        assert sym.max_level(sym.empty_set(S_EMPTY)).kind == "empty"


class TestShift:
    def test_row_shift(self):
        got = sym.shift(sym.basis(S_EMPTY, B("V", 0)), 3)
        assert sym.is_equal(got, sym.basis(S_EMPTY, B("V", 3)))

    def test_identity_and_inverse(self, family_param):
        _, s = family_param
        rng = random.Random(1)
        for _ in range(20):
            x, _ = random_element(rng, s)
            assert sym.is_equal(sym.shift(x, 0), x)
            assert sym.is_equal(sym.shift(sym.shift(x, 2), -2), x)


class TestRestrict:
    def test_down_set_window(self):
        got = sym.restrict_to_window(sym.basis(S_EMPTY, B("D", 0)), TruncationSpec(-1, 1, 3))
        assert got == tuple(
            VertexId(p, m) for p in (-1, 0) for m in (1, 2, 3)
        )

    def test_empty(self):
        assert sym.restrict_to_window(sym.empty_set(S_EMPTY), TruncationSpec(0, 1, 4)) == ()

    def test_pattern_row_window(self):
        s = parse_sparam("{3}")
        got = sym.restrict_to_window(sym.basis(s, B("S", 1, 1)), TruncationSpec(1, 1, 5))
        assert got == (VertexId(1, 2), VertexId(1, 3), VertexId(1, 4))


class TestDecompose:
    def test_trivial(self):
        assert sym.decompose_to_basis(sym.basis(S_EMPTY, B("A", 0, 1))) == (B("A", 0, 1),)
        assert sym.decompose_to_basis(sym.empty_set(S_EMPTY)) == ()

    def test_full_set(self):
        parts = sym.decompose_to_basis(sym.full_set(S_EMPTY))
        rebuilt = sym.empty_set(S_EMPTY)
        for b in parts:
            rebuilt = sym.union(rebuilt, sym.basis(S_EMPTY, b))
        assert sym.is_equal(rebuilt, sym.full_set(S_EMPTY))


class TestDisplay:
    def test_empty(self):
        assert sym.display(sym.empty_set(S_EMPTY)) == "0"
        assert sym.is_empty(sym.parse_set(S_EMPTY, "0"))

    def test_roundtrip(self, family_param):
        _, s = family_param
        rng = random.Random(7)
        for _ in range(30):
            x, _ = random_element(rng, s)
            assert sym.parse_set(s, sym.display(x)) == x

    def test_parser_accepts_any_order(self):
        a = sym.parse_set(S_EMPTY, "A(0,1) + D(-1) + Sbar(0,3)")
        b = sym.parse_set(S_EMPTY, "Sbar(0,3) + A(0,1) + D(-1)")
        assert a == b

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            sym.parse_set(S_EMPTY, "A(0)")
        with pytest.raises(ValueError):
            sym.parse_set(S_EMPTY, "Q(0,1)")
