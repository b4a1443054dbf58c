import dataclasses
import functools
import hashlib
import itertools

import pytest

from conftest import reference_generated
from tensebench import relalg as ra
from tensebench import search as se
from tensebench.frames import (
    CapacityError, Frame, VertexId, complex_f, complex_g, is_total, iter_bits,
)

# (raw, iso) of the total-frame search for k = 1..5
FRAME_COUNTS = {1: (1, 1), 2: (3, 2), 3: (27, 7), 4: (729, 42), 5: (59049, 582)}

# (raw, iso) of the atom-structure search by (k, constraints)
STRUCTURE_COUNTS = {
    (3, ()): (20, 14),
    (3, ("sym",)): (16, 10),
    (3, ("sym", "sa")): (16, 7),
    (3, ("sa",)): (20, 10),
    (4, ()): (1408, 304),
    (4, ("sym",)): (1024, 208),
    (4, ("sym", "sa")): (1024, 148),
    (4, ("sym", "assoc")): (1024, 65),
    (4, ("sa",)): (1408, 220),
    (4, ("assoc",)): (1408, 102),
    (4, ("refl",)): (1408, 56),
    (4, ("subadd",)): (1408, 104),
}
DUAL_PATH_CASES = [(1, ()), (2, ()), (2, ("sym",))] + list(STRUCTURE_COUNTS)

# classify_minimal of each total frame on k points, in enumeration order; a
# NotMinimal verdict is written as its witness
CLASSIFY_PINS = {
    1: ("TrivialSize2",),
    2: ("MinimalCoverCandidate",) * 2,
    3: (1, 3, "MinimalCoverCandidate", "MinimalCoverCandidate", 2, 1, 1),
    4: (1, 1, 7, 7, 2, 1, 1, 1, 1, 2, 5, 2, 5, 5, 5, 1, 1, 1, 5, 1, 1,
        1, 1, 3, 3, 3, 1, 1, 3, 1, 5, 1, 3, 3, 2, 3, 1, 1, 1, 1, 1, 1),
}


def code_matrix(k, code):
    """The adjacency matrix of a search code: one base-3 digit per pair i < j,
    0 for i->j, 1 for j->i, 2 for both, and a loop at every vertex."""
    adj = [[i == j for j in range(k)] for i in range(k)]
    for i, j in itertools.combinations(range(k), 2):
        choice = code % 3
        code //= 3
        adj[i][j] = choice in (0, 2)
        adj[j][i] = choice in (1, 2)
    return adj


def least_matrix(adj):
    """Brute-force canonical key: the least matrix bits (bit i*k + j is the
    edge i->j) over all vertex permutations."""
    k = len(adj)
    best = None
    for perm in itertools.permutations(range(k)):
        bits = 0
        pos = 0
        for i in range(k):
            for j in range(k):
                if adj[perm[i]][perm[j]]:
                    bits |= 1 << pos
                pos += 1
        if best is None or bits < best:
            best = bits
    return best


def reference_frame(k, bits):
    """The frame of matrix bits, built from its edge list."""
    vertices = [VertexId(0, i + 1) for i in range(k)]
    edges = [(vertices[i], vertices[j])
             for i in range(k) for j in range(k) if bits >> (i * k + j) & 1]
    return Frame(vertices, edges)


def frame_state(frame):
    """What a frame is made of: its vertices and its successor and
    predecessor masks."""
    return frame.vertices, frame._succ, frame._pred


def reference_total_frames(k):
    """Reference frame search: each relabeling's image of a code is summed
    one base-3 digit at a time, and each representative frame is built from
    its edge list."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    slot = {pair: p for p, pair in enumerate(pairs)}
    maps = []
    for perm in itertools.permutations(range(k)):
        per_pair = []
        for (i, j) in pairs:
            a, b = perm[i], perm[j]
            lo, hi = min(a, b), max(a, b)
            weight = 3 ** slot[(lo, hi)]
            up, down = 1 << (lo * k + hi), 1 << (hi * k + lo)
            if a < b:
                choices = ((0, up), (weight, down), (2 * weight, up | down))
            else:
                choices = ((weight, down), (0, up), (2 * weight, up | down))
            per_pair.append(choices)
        maps.append(per_pair)
    loops = sum(1 << (i * k + i) for i in range(k))
    visited = bytearray(3 ** len(pairs))
    found = set()
    for code in range(len(visited)):
        if visited[code]:
            continue
        digits = []
        rest = code
        for _ in pairs:
            digits.append(rest % 3)
            rest //= 3
        best = None
        for per_pair in maps:
            image = 0
            bits = loops
            for choices, digit in zip(per_pair, digits):
                step, edges = choices[digit]
                image += step
                bits |= edges
            visited[image] = 1
            if best is None or bits < best:
                best = bits
        found.add(best)
    keys = sorted(found)
    report = se.SearchReport(
        "frames", k, (), len(visited), len(keys),
        tuple(f"matrix={bits:0{k * k}b}" for bits in keys),
    )
    return report, [reference_frame(k, bits) for bits in keys]


def mask_image(mask, bit_map):
    """The image of an orbit mask, one bit at a time."""
    image = 0
    for i in range(mask.bit_length()):
        if mask >> i & 1:
            image |= 1 << bit_map[i]
    return image


def reference_representatives(orbits, maps):
    """Reference orbit walk: every image of an unvisited mask is computed
    bit by bit and marked visited."""
    visited = bytearray(1 << len(orbits))
    reps = []
    for mask in range(len(visited)):
        if not visited[mask]:
            reps.append(mask)
            for bit_map in maps:
                visited[mask_image(mask, bit_map)] = 1
    return reps


def every_converse(k):
    diversity = tuple(range(1, k))
    for conv_map in se._involutions(diversity):
        yield tuple([0] + [conv_map[a] for a in diversity])


# the orbit walk at k = 5 over the symmetric converse: the number of least
# masks and the sha256 of their space-separated decimal list
SYMMETRIC_K5_REPS = (
    45960, "23d59b6bcb7a037dd5715b44391e4e02397e29db538510ac453306b61dbe26fa"
)


def search_raw_structures(k):
    """Every structure the k-atom search counts as raw: each orbit mask of
    each converse, in enumeration order, with its converse and mask."""
    for conv in every_converse(k):
        orbits = se._triple_orbits(k, conv)
        forced = se._forced_cycles(k, conv)
        for mask in range(1 << len(orbits)):
            cycles = set(forced)
            for i, orbit in enumerate(orbits):
                if mask >> i & 1:
                    cycles |= orbit
            yield conv, mask, ra.AtomStructure(k, conv, frozenset({0}), frozenset(cycles))


def reference_canonical_structure(structure):
    """Reference canonical key: the least (converse, sorted cycle list) over
    all permutations of the non-identity atoms, serialized."""
    k = structure.atom_count
    best = None
    for perm_rest in itertools.permutations(range(1, k)):
        perm = (0,) + perm_rest
        conv = [0] * k
        for a in range(k):
            conv[perm[a]] = perm[structure.converse[a]]
        cycles = sorted(
            (perm[a], perm[b], perm[c]) for (a, b, c) in structure.cycles
        )
        key = (tuple(conv), tuple(cycles))
        if best is None or key < best:
            best = key
    conv_text = ",".join(str(c) for c in best[0])
    cyc_text = ";".join(f"{a}.{b}.{c}" for a, b, c in best[1])
    return f"conv={conv_text} cycles={cyc_text}"


@functools.lru_cache(maxsize=None)
def checked_masks(k):
    """Reference: every orbit mask of every converse, in enumeration order,
    with its structure, axiom report and canonical key."""
    return tuple(
        (conv, mask, structure, ra.check_axioms(ra.expand(structure)),
         reference_canonical_structure(structure))
        for conv, mask, structure in search_raw_structures(k)
    )


def every_mask_search(k, constraints):
    """Reference search: check every mask and keep the first passing
    structure of each canonical key."""
    fields = se._constraint_fields(constraints)
    raw = 0
    found = {}
    for conv, _, structure, report, key in checked_masks(k):
        if "symmetric" in fields and conv != tuple(range(k)):
            continue
        raw += 1
        if all(getattr(report, name) for name in fields):
            found.setdefault(key, structure)
    keys = sorted(found)
    report = se.SearchReport("structures", k, constraints, raw, len(keys), tuple(keys))
    return report, [found[key] for key in keys]


class TestTotalFrames:
    def test_one_vertex(self):
        report, frames = se.enumerate_total_frames(1)
        assert report.iso_count == 1
        assert frames[0].has_edge(VertexId(0, 1), VertexId(0, 1))

    def test_two_vertices(self):
        report, frames = se.enumerate_total_frames(2)
        assert report.raw_count == 3
        assert report.iso_count == 2

    def test_three_vertices_stable(self):
        report, frames = se.enumerate_total_frames(3)
        again, _ = se.enumerate_total_frames(3)
        assert report.to_records() == again.to_records()
        assert report.iso_count == 7  # frozen from the brute force itself
        assert all(is_total(f) for f in frames)

    def test_representatives_pairwise_non_isomorphic(self):
        _, frames = se.enumerate_total_frames(3)
        bit_sets = []
        for frame in frames:
            k = len(frame)
            vs = frame.vertices
            forms = set()
            for perm in itertools.permutations(range(k)):
                bits = 0
                pos = 0
                for i in range(k):
                    for j in range(k):
                        if frame.has_edge(vs[perm[i]], vs[perm[j]]):
                            bits |= 1 << pos
                        pos += 1
                forms.add(bits)
            bit_sets.append(forms)
        for a in range(len(bit_sets)):
            for b in range(a + 1, len(bit_sets)):
                assert not (bit_sets[a] & bit_sets[b])

    @pytest.mark.parametrize("k", sorted(FRAME_COUNTS))
    def test_counts(self, k):
        report, frames = se.enumerate_total_frames(k)
        assert (report.raw_count, report.iso_count) == FRAME_COUNTS[k]
        assert len(frames) == report.iso_count

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_keys_match_brute_force(self, k):
        report, _ = se.enumerate_total_frames(k)
        expected = {least_matrix(code_matrix(k, code)) for code in range(3 ** (k * (k - 1) // 2))}
        assert report.representatives == tuple(
            f"matrix={bits:0{k * k}b}" for bits in sorted(expected)
        )

    @pytest.mark.parametrize("k", sorted(FRAME_COUNTS))
    def test_matches_reference_search(self, k):
        report, frames = se.enumerate_total_frames(k)
        expected, expected_frames = reference_total_frames(k)
        assert report == expected
        assert [frame_state(f) for f in frames] == [frame_state(f) for f in expected_frames]

    @pytest.mark.parametrize("k", sorted(FRAME_COUNTS))
    def test_frame_from_bits_matches_edge_list(self, k):
        report, _ = se.enumerate_total_frames(k)
        vertices = tuple(VertexId(0, i + 1) for i in range(k))
        for rep in report.representatives:
            bits = int(rep.removeprefix("matrix="), 2)
            assert (frame_state(se._frame_from_bits(vertices, bits))
                    == frame_state(reference_frame(k, bits)))

    def test_serial_parallel_identical(self):
        serial, serial_structures = se.enumerate_atom_structures(3, jobs=1)
        parallel, parallel_structures = se.enumerate_atom_structures(3, jobs=2)
        assert serial.to_records() == parallel.to_records()
        assert serial_structures == parallel_structures

    def test_capacity(self):
        with pytest.raises(CapacityError):
            se.enumerate_total_frames(6)


class TestClassify:
    def test_single_loop_is_trivial(self):
        _, frames = se.enumerate_total_frames(1)
        assert se.classify_minimal(frames[0]).kind == "TrivialSize2"

    def test_two_clique_classification(self):
        _, frames = se.enumerate_total_frames(2)
        both = [
            f for f in frames
            if all(f.has_edge(u, v) for u in f.vertices for v in f.vertices)
        ]
        result = se.classify_minimal(both[0])
        assert result.kind == "MinimalCoverCandidate"

    def test_identity_operators_not_minimal(self):
        # with f = g = identity, {0, 1, x, x'} is closed, so any algebra with
        # more than 4 elements has proper 1-generated subalgebras
        vs = [VertexId(0, 1), VertexId(0, 2), VertexId(0, 3)]
        frame = Frame(vs, [(v, v) for v in vs])
        result = se.classify_minimal(frame)
        assert result.kind == "NotMinimal"
        assert result.witness is not None
        closed = reference_generated({result.witness}, 0b111, operators(frame))
        assert len(closed) == 4 < 8

    @pytest.mark.parametrize("k", sorted(CLASSIFY_PINS))
    def test_every_total_frame_verdict_and_witness(self, k):
        _, frames = se.enumerate_total_frames(k)
        got = [str(se.classify_minimal(frame)) for frame in frames]
        assert got == [
            f"NotMinimal(witness={pin})" if isinstance(pin, int) else pin
            for pin in CLASSIFY_PINS[k]
        ]

    def test_five_point_frames_match_the_element_closure(self):
        _, frames = se.enumerate_total_frames(5)
        assert len(frames) == 582
        for frame in frames:
            assert se.classify_minimal(frame) == reference_classify(frame)

    def test_cap_is_ten_atoms(self):
        # a chain: every vertex sees itself and every later vertex
        def chain(k):
            vs = [VertexId(0, i + 1) for i in range(k)]
            return Frame(vs, [(a, b) for a in vs for b in vs if a <= b])

        frame = chain(10)
        assert is_total(frame)
        assert se.classify_minimal(frame) == reference_classify(frame)
        with pytest.raises(CapacityError, match="11 atoms exceeds the 10-atom cap"):
            se.classify_minimal(chain(11))

    def test_empty_frame_is_refused(self):
        with pytest.raises(ValueError, match="nonempty"):
            se.classify_minimal(Frame([], []))


def operators(frame):
    return (functools.partial(complex_f, frame), functools.partial(complex_g, frame))


def reference_classify(frame):
    """`classify_minimal` by closing each element under every operation."""
    one = (1 << len(frame)) - 1
    if one == 1:
        return se.Classification("TrivialSize2")
    for x in range(1, one):
        if len(reference_generated({x}, one, operators(frame))) < one + 1:
            return se.Classification("NotMinimal", x)
    return se.Classification("MinimalCoverCandidate")


class TestAtomStructures:
    def test_one_atom(self):
        report, structures = se.enumerate_atom_structures(1)
        assert report.iso_count == 1
        alg = ra.expand(structures[0])
        assert alg.one + 1 == 2 and alg.identity == alg.one

    def test_two_atoms_symmetric(self):
        report, structures = se.enumerate_atom_structures(2, ("sym",))
        assert report.iso_count == 2
        with_cycle = [s for s in structures if (1, 1, 1) in s.cycles]
        without = [s for s in structures if (1, 1, 1) not in s.cycles]
        assert len(with_cycle) == 1 and len(without) == 1
        # (d,d,d) absent: d*d = e, the two-point pattern
        alg = ra.expand(without[0])
        d = alg.one ^ alg.identity
        assert alg.compose(d, d) == alg.identity
        alg = ra.expand(with_cycle[0])
        assert alg.compose(d, d) == alg.one

    def test_three_atoms_semiassociative_stable(self):
        report, _ = se.enumerate_atom_structures(3, ("sa",))
        again, _ = se.enumerate_atom_structures(3, ("sa",))
        assert report.to_records() == again.to_records()
        assert report.iso_count == 10  # frozen from the exhaustive run

    def test_all_enumerated_pass_triangle(self):
        _, structures = se.enumerate_atom_structures(3)
        for structure in structures:
            ok, _ = ra.triangle_by_atoms(structure)
            assert ok

    def test_constraints_filter(self):
        all_report, _ = se.enumerate_atom_structures(2, ("sym",))
        refl_report, refl = se.enumerate_atom_structures(2, ("sym", "refl"))
        assert refl_report.iso_count <= all_report.iso_count
        for structure in refl:
            assert ra.check_axioms(ra.expand(structure)).reflexive

    def test_capacity(self):
        with pytest.raises(CapacityError):
            se.enumerate_atom_structures(5)

    @pytest.mark.parametrize(
        "k, constraints", list(STRUCTURE_COUNTS),
        ids=[f"k{k}-{','.join(c) or 'none'}" for k, c in STRUCTURE_COUNTS],
    )
    def test_counts(self, k, constraints):
        report, structures = se.enumerate_atom_structures(k, constraints)
        assert (report.raw_count, report.iso_count) == STRUCTURE_COUNTS[(k, constraints)]
        assert len(structures) == report.iso_count


class TestOrbitOnceStructures:
    @pytest.mark.parametrize(
        "k, constraints", DUAL_PATH_CASES,
        ids=[f"k{k}-{','.join(c) or 'none'}" for k, c in DUAL_PATH_CASES],
    )
    def test_matches_every_mask_search(self, k, constraints):
        report, structures = se.enumerate_atom_structures(k, constraints)
        expected, expected_structures = every_mask_search(k, constraints)
        assert report.to_records() == expected.to_records()
        assert [s.to_text() for s in structures] == [s.to_text() for s in expected_structures]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_mask_agrees_with_its_representative(self, k):
        checked = {(conv, mask): (report, key) for conv, mask, _, report, key in checked_masks(k)}
        for conv in sorted({conv for conv, _ in checked}):
            orbits = se._triple_orbits(k, conv)
            maps = se._bit_maps(k, conv, orbits)
            reps = se._representatives(orbits, maps)
            least = [min(mask_image(mask, m) for m in maps) for mask in range(1 << len(orbits))]
            assert reps == sorted(set(least))
            for mask, rep in enumerate(least):
                report, key = checked[(conv, mask)]
                rep_report, rep_key = checked[(conv, rep)]
                assert key == rep_key, (conv, mask, rep)
                assert (dataclasses.replace(report, witnesses=())
                        == dataclasses.replace(rep_report, witnesses=())), (conv, mask, rep)

    @pytest.mark.parametrize(
        "constraints, calls", [(("sym", "sa"), 208), ((), 496)], ids=["sym,sa", "none"]
    )
    def test_axioms_checked_once_per_orbit(self, monkeypatch, constraints, calls):
        count = 0
        check_axioms = ra.check_axioms
        requested = set()

        def counting(alg, laws):
            nonlocal count
            count += 1
            requested.add(tuple(laws))
            return check_axioms(alg, laws)

        monkeypatch.setattr(ra, "check_axioms", counting)
        se.enumerate_atom_structures(4, constraints)
        assert count == calls
        # only the laws of the filter are decided
        assert requested == {se._constraint_fields(constraints)}

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_table_key_matches_reference_key(self, k):
        key_of = {}
        for conv, mask, _, _, key in checked_masks(k):
            if conv not in key_of:
                key_of[conv] = se._canonical_keys(k, conv, se._triple_orbits(k, conv))
            assert key_of[conv](mask) == key, (conv, mask)

    def test_table_key_on_five_atom_representatives(self):
        conv = tuple(range(5))
        orbits = se._triple_orbits(5, conv)
        forced = se._forced_cycles(5, conv)
        key_of = se._canonical_keys(5, conv, orbits)
        reps = se._representatives(orbits, se._bit_maps(5, conv, orbits))
        for mask in reps[::92]:
            cycles = forced.union(*(orbits[i] for i in iter_bits(mask)))
            structure = ra.AtomStructure(5, conv, frozenset({0}), cycles)
            assert key_of(mask) == reference_canonical_structure(structure), mask

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_representatives_match_reference_walk(self, k):
        for conv in every_converse(k):
            orbits = se._triple_orbits(k, conv)
            maps = se._bit_maps(k, conv, orbits)
            assert se._representatives(orbits, maps) == reference_representatives(orbits, maps)

    def test_symmetric_five_atom_representatives_pinned(self):
        conv = tuple(range(5))
        orbits = se._triple_orbits(5, conv)
        reps = se._representatives(orbits, se._bit_maps(5, conv, orbits))
        digest = hashlib.sha256(" ".join(map(str, reps)).encode()).hexdigest()
        assert (len(reps), digest) == SYMMETRIC_K5_REPS
