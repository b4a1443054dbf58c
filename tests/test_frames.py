import itertools
import random
from operator import and_, or_

import pytest

from conftest import seeded_structure
from tensebench import relalg as ra
from tensebench import search as se
from tensebench.frames import (
    CapacityError,
    Frame,
    FiniteTenseAlgebra,
    TruncationSpec,
    VertexId,
    as_finite_algebra,
    _transpose,
    build_truncation,
    closure,
    complex_f,
    complex_g,
    edge_present,
    export_dot,
    frame_to_text,
    is_reflexive,
    is_total,
    parse_frame,
)
from tensebench.sparam import S_EMPTY, parse_sparam


def v(p, m):
    return VertexId(p, m)


class TestBuildTruncation:
    def test_pattern_edge_present_when_selected(self):
        s = parse_sparam("{3}")
        frame = build_truncation(TruncationSpec(0, 1, 5), s)
        assert frame.has_edge(v(0, 1), v(1, 3))

    def test_pattern_edge_absent_when_not_selected(self):
        frame = build_truncation(TruncationSpec(0, 1, 5), S_EMPTY)
        assert not frame.has_edge(v(0, 1), v(1, 3))

    def test_loops_everywhere(self):
        frame = build_truncation(TruncationSpec(0, 0, 5), S_EMPTY)
        assert frame.has_edge(v(0, 4), v(0, 4))

    def test_higher_level_points_down(self):
        frame = build_truncation(TruncationSpec(0, 1, 5), S_EMPTY)
        assert frame.has_edge(v(1, 2), v(0, 5))

    def test_matches_pointwise_predicate(self):
        for text in ("empty", "{3}", "O", "{3,7}", "O\\{5}"):
            s = parse_sparam(text)
            frame = build_truncation(TruncationSpec(-2, 2, 10), s)
            for a in frame.vertices:
                for b in frame.vertices:
                    assert frame.has_edge(a, b) == edge_present(s, a, b)

    def test_budget(self):
        with pytest.raises(CapacityError):
            build_truncation(TruncationSpec(-8, 8, 48), S_EMPTY, budget=100)

    def test_window_monotone(self):
        s = parse_sparam("{3,7}")
        small = TruncationSpec(-1, 1, 6)
        large = build_truncation(TruncationSpec(-3, 3, 10), s)
        resmall = build_truncation(small, s)
        for a in resmall.vertices:
            for b in resmall.vertices:
                assert resmall.has_edge(a, b) == large.has_edge(a, b)


class TestTotality:
    def test_truncations_total(self, family_param):
        _, s = family_param
        frame = build_truncation(TruncationSpec(-2, 2, 8), s)
        assert is_total(frame)
        assert is_reflexive(frame)

    def test_two_loops_not_total(self):
        vs = [v(0, 1), v(0, 2)]
        frame = Frame(vs, [(vs[0], vs[0]), (vs[1], vs[1])])
        assert not is_total(frame)

    def test_loopless_vertex_not_total(self):
        frame = Frame([v(0, 1)], [])
        assert not is_total(frame)


class TestComplexOperators:
    def test_empty_image(self):
        frame = build_truncation(TruncationSpec(0, 1, 4), S_EMPTY)
        assert frame.unmask(complex_f(frame, frame.mask([]))) == ()

    def test_single_edge_image(self):
        vs = [v(0, 1), v(0, 2)]
        frame = Frame(vs, [(vs[0], vs[0]), (vs[1], vs[1]), (vs[0], vs[1])])
        assert frozenset(frame.unmask(complex_f(frame, frame.mask([vs[0]])))) == frozenset(vs)
        assert frozenset(frame.unmask(complex_g(frame, frame.mask([vs[0]])))) == frozenset([vs[0]])

    def test_image_of_index_one_row(self):
        # successors of a_{0,1} inside the window, empty parameter: itself,
        # its right neighbour, everything below, and the evens one level up
        s = S_EMPTY
        frame = build_truncation(TruncationSpec(-2, 2, 10), s)
        got = frozenset(frame.unmask(complex_f(frame, frame.mask([v(0, 1)]))))
        want = {v(0, 1), v(0, 2)}
        want |= {v(p, m) for p in (-2, -1) for m in range(1, 11)}
        want |= {v(1, m) for m in range(2, 11, 2)}
        assert got == frozenset(want)


class TestFiniteAlgebra:
    def test_single_loop_gives_identity_operators(self):
        frame = Frame([v(0, 1)], [(v(0, 1), v(0, 1))])
        alg = as_finite_algebra(frame)
        assert alg.one == 1
        assert alg.f(1) == 1 and alg.g(1) == 1
        assert alg.f(0) == 0

    def test_total_two_clique(self):
        vs = [v(0, 1), v(0, 2)]
        frame = Frame(vs, [(a, b) for a in vs for b in vs])
        alg = as_finite_algebra(frame)
        assert alg.f(0b01) == 0b11

    def test_loopless_vertex(self):
        frame = Frame([v(0, 1)], [])
        alg = as_finite_algebra(frame)
        assert alg.f(1) == 0

    def test_conjugacy_of_tables(self, family_param):
        _, s = family_param
        frame = build_truncation(TruncationSpec(-1, 1, 6), s)
        alg = as_finite_algebra(frame)
        for i in range(alg.atom_count):
            for j in range(alg.atom_count):
                assert bool(alg.f_atom[i] >> j & 1) == bool(alg.g_atom[j] >> i & 1)


def reference_closure(seeds, unary=(), binary=()):
    """Round-based fixpoint: every round applies each operation to every
    element, and to every ordered pair, found by the round before."""
    closed = set(seeds)
    frontier = True
    while frontier:
        frontier = False
        current = list(closed)
        values = [op(x) for x in current for op in unary]
        values += [op(x, y) for x in current for y in current for op in binary]
        for value in values:
            if value not in closed:
                closed.add(value)
                frontier = True
    return closed


def random_seeds(rng, alg, count):
    return {rng.randrange(alg.one + 1) for _ in range(count)}


class TestClosure:
    def test_random_tense_algebras(self):
        rng = random.Random(12)
        for _ in range(200):
            n = rng.randint(1, 5)
            f_atom = tuple(rng.randrange(1 << n) for _ in range(n))
            alg = FiniteTenseAlgebra(f_atom, _transpose(f_atom))
            seeds = random_seeds(rng, alg, rng.randint(1, 3))
            for unary, binary in (
                ((alg.neg, alg.f, alg.g), (or_, and_)),
                ((alg.f, alg.g), (or_,)),
                ((alg.f,), ()),
            ):
                assert closure(seeds, unary, binary) == reference_closure(seeds, unary, binary)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("mode", ["raw", "closed", "dropped"])
    def test_noncommuting_composition(self, k, mode):
        # composition alone generates a subsemigroup, which depends on the
        # order of its arguments whenever x;y != y;x
        rng = random.Random(k)
        for seed in range(6):
            alg = ra.expand(seeded_structure(k, seed, mode, 0.3))
            for _ in range(4):
                seeds = random_seeds(rng, alg, rng.randint(1, 2))
                for unary, binary in (
                    ((), (alg.compose,)),
                    ((alg.neg, alg.converse), (or_, and_, alg.compose)),
                ):
                    assert (closure(seeds, unary, binary)
                            == reference_closure(seeds, unary, binary))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_peirce_orbits(self, k):
        for conv_map in se._involutions(tuple(range(k))):
            conv = tuple(conv_map[a] for a in range(k))
            transforms = tuple(
                lambda t, transform=transform: transform(*t, conv)
                for transform in ra.PEIRCE_TRANSFORMS
            )
            for triple in itertools.product(range(k), repeat=3):
                assert se._orbit(triple, conv) == reference_closure({triple}, transforms)


class TestConjugacyExhaustive:
    def test_conjugacy_over_all_subsets(self):
        # nine vertices: every pair of subsets, via the operator tables
        s = parse_sparam("{3}")
        frame = build_truncation(TruncationSpec(0, 2, 3), s)
        alg = as_finite_algebra(frame)
        images = [alg.f(x) for x in alg.elements()]
        preimages = [alg.g(y) for y in alg.elements()]
        for x in alg.elements():
            for y in alg.elements():
                assert (images[x] & y == 0) == (x & preimages[y] == 0)

    def test_totality_at_finite_scale(self):
        # on a total frame, f(X) | g(X) covers everything for nonempty X
        frame = build_truncation(TruncationSpec(0, 2, 3), S_EMPTY)
        assert is_total(frame)
        alg = as_finite_algebra(frame)
        for x in range(1, alg.one + 1):
            assert alg.f(x) | alg.g(x) == alg.one


class TestDot:
    def test_loop_suppression(self):
        frame = Frame([v(0, 1)], [(v(0, 1), v(0, 1))])
        suppressed = export_dot(frame, suppress_loops=True)
        assert '"a_0_1" -> "a_0_1"' not in suppressed
        assert '"a_0_1";' in suppressed
        plain = export_dot(frame, suppress_loops=False)
        assert '"a_0_1" -> "a_0_1";' in plain

    def test_edges_match_truncation(self):
        s = parse_sparam("{3}")
        frame = build_truncation(TruncationSpec(0, 1, 3), s)
        text = export_dot(frame)
        for a in frame.vertices:
            for b in frame.vertices:
                line = f'"{a}" -> "{b}";'
                assert (line in text) == frame.has_edge(a, b)


class TestFrameFile:
    def test_roundtrip(self):
        s = parse_sparam("{3}")
        frame = build_truncation(TruncationSpec(0, 1, 3), s)
        text = frame_to_text(frame)
        again = parse_frame(text)
        assert frame_to_text(again) == text

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(ValueError):
            parse_frame("frame 2\nv 0 1\nv 0 1\n")

    def test_rejects_unsorted_edges(self):
        text = "frame 2\nv 0 1\nv 0 2\ne 1 0\ne 0 0\n"
        with pytest.raises(ValueError):
            parse_frame(text)

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            parse_frame("vertices 2\n")
