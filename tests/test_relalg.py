import itertools

import pytest

from tensebench import relalg as ra
from tensebench.frames import CapacityError


def one_atom_identity_structure():
    return ra.AtomStructure(1, (0,), frozenset({0}), frozenset({(0, 0, 0)}))


class TestExpand:
    def test_one_atom(self):
        alg = ra.expand(one_atom_identity_structure())
        assert alg.one + 1 == 2
        assert alg.identity == alg.one
        assert alg.compose(1, 1) == 1

    def test_capacity(self):
        k = 13
        with pytest.raises(CapacityError):
            ra.expand(ra.AtomStructure(k, tuple(range(k)), frozenset({0}), frozenset()))

    def test_composition_is_additive(self):
        alg = ra.minimal_point_algebra(3)
        for x in alg.elements():
            for y in alg.elements():
                direct = alg.compose(x, y)
                pieces = 0
                for a in alg.atoms():
                    for b in alg.atoms():
                        if a & x and b & y:
                            pieces |= alg.compose(a, b)
                assert direct == pieces


class TestProperOracle:
    @pytest.mark.parametrize("base", [1, 2, 3])
    def test_full_algebras_pass_relation_algebra_laws(self, base):
        # the relation-algebra laws only: the extra properties (symmetric,
        # reflexive, subadditive) do not hold in full algebras on 2+ points
        report = ra.check_axioms(ra.proper_algebra(base))
        assert report.boolean_reduct and report.identity and report.triangle
        assert report.semiassociative and report.associative

    def test_relational_composition_is_the_oracle(self):
        # composition in the proper algebra is literal relational composition
        base = 3
        alg = ra.proper_algebra(base)
        pairs = [(i, j) for i in range(base) for j in range(base)]
        for x_bits in (0b101, 0b110001, 0b111):
            for y_bits in (0b1, 0b10110):
                got = alg.compose(x_bits, y_bits)
                x_rel = {pairs[i] for i in range(9) if x_bits >> i & 1}
                y_rel = {pairs[i] for i in range(9) if y_bits >> i & 1}
                want_rel = {
                    (i, l) for (i, j) in x_rel for (k, l) in y_rel if j == k
                }
                want = 0
                for pair in want_rel:
                    want |= 1 << pairs.index(pair)
                assert got == want


class TestMinimalAlgebras:
    def test_point_algebra_sizes(self):
        assert ra.minimal_point_algebra(1).one + 1 == 2
        assert ra.minimal_point_algebra(2).one + 1 == 4
        assert ra.minimal_point_algebra(3).one + 1 == 4

    def test_two_point_diversity_squares_to_identity(self):
        alg = ra.minimal_point_algebra(2)
        d = alg.one ^ alg.identity
        assert alg.compose(d, d) == alg.identity

    def test_three_point_diversity_squares_to_top(self):
        alg = ra.minimal_point_algebra(3)
        d = alg.one ^ alg.identity
        assert alg.compose(d, d) == alg.one

    def test_axiom_profiles(self):
        two = ra.check_axioms(ra.minimal_point_algebra(2))
        assert two.semiassociative and not two.reflexive
        three = ra.check_axioms(ra.minimal_point_algebra(3))
        assert three.triangle and three.associative
        assert three.symmetric and three.reflexive

    def test_idempotent(self):
        mini = ra.minimal_point_algebra(3)
        again = ra.minimal_subalgebra(mini)
        assert again.one == mini.one
        assert again.comp_atom == mini.comp_atom
        assert again.identity == mini.identity


def all_raw_structures(k):
    """Every cycle set over k atoms with forced identity behaviour, closed or
    not, for both converse choices."""
    diversity = tuple(range(1, k))
    involutions = (
        [{a: a for a in diversity}]
        if k <= 2
        else [{a: a for a in diversity}, {1: 2, 2: 1}]
    )
    for conv_map in involutions:
        conv = tuple([0] + [conv_map[a] for a in diversity]) if k > 1 else (0,)
        forced = set()
        for a in range(k):
            forced.add((0, a, a))
            forced.add((a, 0, a))
            if a != 0:
                forced.add((a, conv[a], 0))
        free = list(itertools.product(diversity, repeat=3))
        for mask in range(1 << len(free)):
            cycles = set(forced)
            for i, triple in enumerate(free):
                if mask >> i & 1:
                    cycles.add(triple)
            yield ra.AtomStructure(k, conv, frozenset({0}), frozenset(cycles))


class TestTriangleDualPath:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_atom_closure_iff_element_enumeration(self, k):
        for structure in all_raw_structures(k):
            alg = ra.expand(structure)
            by_atoms, _ = ra.triangle_by_atoms(structure)
            by_elements, _ = ra.triangle_by_elements(alg)
            assert by_atoms == by_elements, structure

    def test_associative_implies_semiassociative(self):
        for structure in all_raw_structures(3):
            report = ra.check_axioms(ra.expand(structure), structure)
            if report.associative:
                assert report.semiassociative

    def test_semiassociativity_failure_has_witness(self):
        failing = None
        for structure in all_raw_structures(3):
            report = ra.check_axioms(ra.expand(structure), structure)
            if report.triangle and not report.semiassociative:
                failing = report
                break
        assert failing is not None
        assert any(law == "semiassociative" for law, _ in failing.witnesses)


class TestStructureFiles:
    def test_roundtrip(self):
        structure = ra.AtomStructure(
            2, (0, 1), frozenset({0}),
            frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}),
        )
        assert ra.parse_atom_structure(structure.to_text()) == structure

    def test_rejects_bad_converse(self):
        with pytest.raises(ValueError):
            ra.AtomStructure(2, (1, 0, 2), frozenset({0}), frozenset())

    def test_structure_of_roundtrip(self):
        alg = ra.minimal_point_algebra(2)
        structure = ra.structure_of(alg)
        again = ra.expand(structure)
        assert again.comp_atom == alg.comp_atom
        assert again.identity == alg.identity
