"""The image/preimage operators: named values, dual-path agreement, oracle
agreement, and the operator laws."""

import random

import pytest

from conftest import random_element
from tensebench import symbolic as sym
from tensebench.frames import (
    TruncationSpec,
    VertexId,
    build_truncation,
    complex_f,
    complex_g,
)
from tensebench.sparam import S_EMPTY, odds_without, parse_sparam

WINDOW = TruncationSpec(-8, 8, 48)


def B(kind, p, m=None):
    return sym.BasisSet(kind, p, m)


def assert_oracle(s, x, result, op, depth=1):
    frame = build_truncation(WINDOW, s)
    inner = WINDOW.shrink(depth)
    current = frame.mask(sym.restrict_to_window(x, WINDOW))
    step = complex_f if op == "f" else complex_g
    for _ in range(depth):
        current = step(frame, current)
    want = {v for v in frame.unmask(current) if inner.contains(v)}
    assert set(sym.restrict_to_window(result, inner)) == want


class TestNamedImages:
    def test_image_of_down_set(self):
        got = sym.apply_f(sym.basis(S_EMPTY, B("D", 0)))
        want = sym.union(sym.basis(S_EMPTY, B("D", 0)), sym.basis(S_EMPTY, B("S", 1, 1)))
        assert sym.is_equal(got, want)

    def test_image_of_up_set_is_everything(self):
        got = sym.apply_f(sym.basis(S_EMPTY, B("U", -2)))
        assert sym.is_equal(got, sym.full_set(S_EMPTY))

    def test_preimage_of_index_one_atom(self):
        got = sym.apply_g(sym.basis(S_EMPTY, B("A", 0, 1)))
        assert sym.is_equal(got, sym.basis(S_EMPTY, B("U", 0)))

    def test_preimage_of_index_two_atom(self):
        got = sym.apply_g(sym.basis(S_EMPTY, B("A", 0, 2)))
        want = sym.union(sym.basis(S_EMPTY, B("A", -1, 1)), sym.basis(S_EMPTY, B("U", 0)))
        assert sym.is_equal(got, want)

    def test_image_of_off_row_infinite_case(self):
        got = sym.apply_f(sym.basis(S_EMPTY, B("Sbar", 0, 2)))
        assert sym.is_equal(got, sym.basis(S_EMPTY, B("D", 0)))

    def test_image_of_empty(self):
        assert sym.is_empty(sym.apply_f(sym.empty_set(S_EMPTY)))

    def test_index_one_row_image(self):
        # the image of an index-1 atom: itself, its neighbour, everything
        # below, and the pattern of the row above
        got = sym.apply_f(sym.basis(S_EMPTY, B("A", 0, 1)))
        want = sym.empty_set(S_EMPTY)
        for b in (B("A", 0, 1), B("A", 0, 2), B("D", -1), B("S", 1, 1)):
            want = sym.union(want, sym.basis(S_EMPTY, b))
        assert sym.is_equal(got, want)


class TestTablePath:
    def test_empty_off_row(self):
        # all odd indices selected: the off-pattern row from 3 is empty
        o = parse_sparam("O")
        assert sym.is_empty(sym.apply_f_table(sym.basis(o, B("Sbar", 0, 3))))

    def test_finite_off_row(self):
        # exactly index 3 missing from the pattern: image reaches index 4
        s = odds_without({3})
        got = sym.apply_f_table(sym.basis(s, B("Sbar", 0, 2)))
        want = sym.basis(s, B("D", -1))
        for n in range(1, 5):
            want = sym.union(want, sym.basis(s, B("A", 0, n)))
        assert sym.is_equal(got, want)
        assert_oracle(s, sym.basis(s, B("Sbar", 0, 2)), got, "f")

    def test_preimage_of_pattern_tail_matches_oracle(self):
        # the preimage stops one index short of the pattern tail's start;
        # indices 1 and 2 are outside it (this is where the clause table
        # needs its corrected row start)
        s = S_EMPTY
        x = sym.basis(s, B("S", 0, 4))
        got = sym.apply_g_table(x)
        assert_oracle(s, x, got, "g")
        assert not sym.member(got, VertexId(0, 1))
        assert not sym.member(got, VertexId(0, 2))
        assert sym.member(got, VertexId(0, 3))
        assert sym.member(got, VertexId(-1, 1))


class TestDualPathAndOracle:
    @pytest.mark.parametrize("kind", ["A", "S", "Sbar", "V", "D", "U"])
    def test_basis_grid(self, family_param, kind):
        _, s = family_param
        frame = build_truncation(WINDOW, s)
        inner = WINDOW.shrink(1)
        levels = range(-3, 4)
        indices = range(1, 13) if kind in ("A", "S", "Sbar") else [None]
        for p in levels:
            for m in indices:
                x = sym.basis(s, B(kind, p, m))
                for op, rule, table, oracle in (
                    ("f", sym.apply_f, sym.apply_f_table, complex_f),
                    ("g", sym.apply_g, sym.apply_g_table, complex_g),
                ):
                    got = rule(x)
                    assert sym.is_equal(got, table(x)), (kind, p, m, op)
                    base = frame.mask(sym.restrict_to_window(x, WINDOW))
                    want = {v for v in frame.unmask(oracle(frame, base)) if inner.contains(v)}
                    assert set(sym.restrict_to_window(got, inner)) == want, (kind, p, m, op)

    def test_random_unions(self, family_param):
        _, s = family_param
        rng = random.Random(0xB5)
        for _ in range(100):
            x, _ = random_element(rng, s)
            assert sym.is_equal(sym.apply_f(x), sym.apply_f_table(x))
            assert sym.is_equal(sym.apply_g(x), sym.apply_g_table(x))


class TestOperatorLaws:
    def test_additivity(self, family_param):
        _, s = family_param
        rng = random.Random(3)
        for _ in range(40):
            x, _ = random_element(rng, s)
            y, _ = random_element(rng, s)
            assert sym.is_equal(
                sym.apply_f(sym.union(x, y)),
                sym.union(sym.apply_f(x), sym.apply_f(y)),
            )

    def test_conjugacy(self, family_param):
        _, s = family_param
        rng = random.Random(4)
        for _ in range(60):
            x, _ = random_element(rng, s)
            y, _ = random_element(rng, s)
            left = sym.is_empty(sym.intersect(sym.apply_f(x), y))
            right = sym.is_empty(sym.intersect(x, sym.apply_g(y)))
            assert left == right

    def test_totality(self, family_param):
        _, s = family_param
        rng = random.Random(5)
        for _ in range(60):
            x, _ = random_element(rng, s)
            if not sym.is_empty(x):
                assert sym.is_equal(sym.union(sym.apply_f(x), sym.apply_g(x)), sym.full_set(s))

    def test_shift_commutes_with_everything(self, family_param):
        _, s = family_param
        rng = random.Random(6)
        for _ in range(30):
            x, _ = random_element(rng, s)
            y, _ = random_element(rng, s)
            d = rng.randint(-3, 3)
            assert sym.is_equal(sym.shift(sym.union(x, y), d),
                                sym.union(sym.shift(x, d), sym.shift(y, d)))
            assert sym.is_equal(sym.shift(sym.intersect(x, y), d),
                                sym.intersect(sym.shift(x, d), sym.shift(y, d)))
            assert sym.is_equal(sym.shift(sym.complement(x), d),
                                sym.complement(sym.shift(x, d)))
            assert sym.is_equal(sym.shift(sym.apply_f(x), d), sym.apply_f(sym.shift(x, d)))
            assert sym.is_equal(sym.shift(sym.apply_g(x), d), sym.apply_g(sym.shift(x, d)))

    def test_closure_under_operations(self, family_param):
        _, s = family_param
        rng = random.Random(8)
        for _ in range(30):
            x, _ = random_element(rng, s)
            for value in (sym.apply_f(x), sym.apply_g(x), sym.complement(x)):
                sym.validate_canonical(value)
