import functools
import itertools
import random

import pytest

from conftest import block_unions, reference_closure, reference_generated, seeded_structure
from tensebench import relalg as ra
from tensebench import search as se
from tensebench.frames import (
    CapacityError,
    Frame,
    TruncationSpec,
    VertexId,
    _transpose,
    build_truncation,
    complex_f,
    complex_g,
    edge_present,
    generated_partition,
    export_dot,
    frame_to_text,
    is_reflexive,
    is_total,
    parse_frame,
)
from tensebench.sparam import S_EMPTY, SParameter, parse_sparam


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
        assert complex_f(frame, 1) == 1 and complex_g(frame, 1) == 1
        assert complex_f(frame, 0) == 0

    def test_total_two_clique(self):
        vs = [v(0, 1), v(0, 2)]
        frame = Frame(vs, [(a, b) for a in vs for b in vs])
        assert complex_f(frame, 0b01) == 0b11

    def test_loopless_vertex(self):
        frame = Frame([v(0, 1)], [])
        assert complex_f(frame, 1) == 0

    def test_conjugacy_of_tables(self, family_param):
        # build_truncation writes the predecessor masks by hand, beside the
        # successor masks, instead of transposing them
        _, s = family_param
        for spec in (TruncationSpec(-1, 1, 6), TruncationSpec(0, 0, 7),
                     TruncationSpec(-2, 1, 1), TruncationSpec(3, 3, 1)):
            frame = build_truncation(spec, s)
            assert frame._pred == _transpose(frame._succ), spec

    def test_conjugacy_on_random_parameters_and_windows(self):
        rng = random.Random("conjugacy")
        for i in range(300):
            bound = rng.randrange(3, 42, 2)
            explicit = frozenset(n for n in range(3, bound + 1, 2) if rng.random() < 0.5)
            s = SParameter(explicit, bound, rng.random() < 0.5)
            levels = 1 if i % 3 == 0 else rng.randint(2, 4)
            index_max = 1 if i % 5 == 0 else rng.randint(1, bound + 4)
            level_lo = rng.randint(-4, 4)
            spec = TruncationSpec(level_lo, level_lo + levels - 1, index_max)
            frame = build_truncation(spec, s)
            assert frame._pred == _transpose(frame._succ), (s, spec)
            if len(frame) <= 60:
                for a in frame.vertices:
                    for b in frame.vertices:
                        assert frame.has_edge(a, b) == edge_present(s, a, b), (s, spec, a, b)


def random_seeds(rng, one, count):
    return {rng.randrange(one + 1) for _ in range(count)}


class TestClosure:
    """`generated_partition` against the element closure: the unions of its
    blocks are every element that 0, 1 and the seeds generate."""

    def test_random_tense_algebras(self):
        rng = random.Random(12)
        for _ in range(200):
            n = rng.randint(1, 5)
            succ = tuple(rng.randrange(1 << n) for _ in range(n))
            frame = Frame.from_masks(tuple(v(0, i + 1) for i in range(n)), succ)
            f, g = functools.partial(complex_f, frame), functools.partial(complex_g, frame)
            one = (1 << n) - 1
            seeds = random_seeds(rng, one, rng.randint(1, 3))
            for unary in ((f, g), (f,), ()):
                blocks = generated_partition(seeds, one, unary)
                assert 0 not in blocks and blocks == sorted(blocks)
                assert block_unions(blocks) == reference_generated(seeds, one, unary)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("mode", ["raw", "closed", "dropped"])
    def test_noncommuting_composition(self, k, mode):
        # x;y != y;x in general, so both orders of every pair of blocks count
        rng = random.Random(k)
        for seed in range(6):
            alg = ra.expand(seeded_structure(k, seed, mode, 0.3))
            for _ in range(4):
                seeds = random_seeds(rng, alg.one, rng.randint(1, 2))
                unary, binary = (alg.converse,), (alg.compose,)
                blocks = generated_partition(seeds, alg.one, unary, binary)
                assert (block_unions(blocks)
                        == reference_generated(seeds, alg.one, unary, binary))

    def test_no_atoms(self):
        assert generated_partition((), 0) == []

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
        elements = range(1 << len(frame))
        images = [complex_f(frame, x) for x in elements]
        preimages = [complex_g(frame, y) for y in elements]
        for x in elements:
            for y in elements:
                assert (images[x] & y == 0) == (x & preimages[y] == 0)

    def test_totality_at_finite_scale(self):
        # on a total frame, f(X) | g(X) covers everything for nonempty X
        frame = build_truncation(TruncationSpec(0, 2, 3), S_EMPTY)
        assert is_total(frame)
        one = (1 << len(frame)) - 1
        for x in range(1, one + 1):
            assert complex_f(frame, x) | complex_g(frame, x) == one


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
