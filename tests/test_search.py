import dataclasses
import functools
import itertools

import pytest

from tensebench import relalg as ra
from tensebench import search as se
from tensebench.frames import CapacityError, Frame, VertexId, as_finite_algebra, is_total

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


@functools.lru_cache(maxsize=None)
def checked_masks(k):
    """Reference: every orbit mask of every converse, in enumeration order,
    with its structure, axiom report and canonical key."""
    diversity = tuple(range(1, k))
    out = []
    for conv_map in se._involutions(diversity):
        conv = tuple([0] + [conv_map[a] for a in diversity])
        orbits = se._triple_orbits(k, conv)
        forced = se._forced_cycles(k, conv)
        for mask in range(1 << len(orbits)):
            cycles = set(forced)
            for i, orbit in enumerate(orbits):
                if mask >> i & 1:
                    cycles |= orbit
            structure = ra.AtomStructure(k, conv, frozenset({0}), frozenset(cycles))
            report = ra.check_axioms(ra.expand(structure), structure)
            out.append((conv, mask, structure, report, se._canonical_structure(structure)))
    return tuple(out)


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
        assert se.classify_minimal(as_finite_algebra(frames[0])).kind == "TrivialSize2"

    def test_two_clique_classification(self):
        _, frames = se.enumerate_total_frames(2)
        both = [
            f for f in frames
            if all(f.has_edge(u, v) for u in f.vertices for v in f.vertices)
        ]
        result = se.classify_minimal(as_finite_algebra(both[0]))
        assert result.kind == "MinimalCoverCandidate"

    def test_identity_operators_not_minimal(self):
        # with f = g = identity, {0, 1, x, x'} is closed, so any algebra with
        # more than 4 elements has proper 1-generated subalgebras
        vs = [VertexId(0, 1), VertexId(0, 2), VertexId(0, 3)]
        frame = Frame(vs, [(v, v) for v in vs])
        result = se.classify_minimal(as_finite_algebra(frame))
        assert result.kind == "NotMinimal"
        assert result.witness is not None
        alg = as_finite_algebra(frame)
        closed = se._generated_subalgebra(alg, result.witness)
        assert len(closed) == 4 < alg.one + 1

    def test_candidates_are_discriminator(self):
        for k in (1, 2, 3):
            _, frames = se.enumerate_total_frames(k)
            for frame in frames:
                alg = as_finite_algebra(frame)
                if se.classify_minimal(alg).kind == "MinimalCoverCandidate":
                    assert se.check_discriminator(alg)


class TestDiscriminator:
    def test_two_element_identity_algebra(self):
        _, frames = se.enumerate_total_frames(1)
        assert se.check_discriminator(as_finite_algebra(frames[0]))

    def test_all_total_frames_up_to_three(self):
        for k in (1, 2, 3):
            _, frames = se.enumerate_total_frames(k)
            for frame in frames:
                assert se.check_discriminator(as_finite_algebra(frame))

    def test_non_total_rejected(self):
        vs = [VertexId(0, 1), VertexId(0, 2)]
        frame = Frame(vs, [(v, v) for v in vs])
        with pytest.raises(ValueError):
            se.check_discriminator(as_finite_algebra(frame))


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
            assert ra.check_axioms(ra.expand(structure), structure).reflexive

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
            least = [min(se._mask_image(mask, m) for m in maps) for mask in range(1 << len(orbits))]
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

        def counting(alg, structure):
            nonlocal count
            count += 1
            return check_axioms(alg, structure)

        monkeypatch.setattr(ra, "check_axioms", counting)
        se.enumerate_atom_structures(4, constraints)
        assert count == calls
