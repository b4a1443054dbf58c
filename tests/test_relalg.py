import itertools

import pytest

from conftest import seeded_structure
from test_search import search_raw_structures
from tensebench import relalg as ra
from tensebench import search as se
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
            report = ra.check_axioms(ra.expand(structure))
            if report.associative:
                assert report.semiassociative

    def test_semiassociativity_failure_has_witness(self):
        failing = None
        for structure in all_raw_structures(3):
            report = ra.check_axioms(ra.expand(structure))
            if report.triangle and not report.semiassociative:
                failing = report
                break
        assert failing is not None
        assert any(law == "semiassociative" for law, _ in failing.witnesses)


def four_atom_representatives():
    """The structure of each of the 496 orbit representatives that the
    4-atom search checks, over every converse."""
    reps = {}
    for conv, mask, structure in search_raw_structures(4):
        if conv not in reps:
            orbits = se._triple_orbits(4, conv)
            reps[conv] = set(se._representatives(orbits, se._bit_maps(4, conv, orbits)))
        if mask in reps[conv]:
            yield structure
    assert sum(map(len, reps.values())) == 496


CONSTRAINT_LAWS = tuple(se._CONSTRAINT_NAMES.values())


def assert_law_subsets_match(alg):
    """Each subset of the constraint laws is decided as in the full report,
    witnesses included, and every other law is left undecided."""
    full = ra.check_axioms(alg)
    for size in range(len(CONSTRAINT_LAWS) + 1):
        for laws in itertools.combinations(CONSTRAINT_LAWS, size):
            expected = ra.AxiomReport(
                **{law: getattr(full, law) for law in laws},
                witnesses=tuple(w for w in full.witnesses if w[0] in laws),
            )
            assert ra.check_axioms(alg, laws) == expected, (alg.comp_atom, laws)


class TestLawSubsets:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_raw_structure(self, k):
        every_law = tuple(ra.LAWS)
        for structure in all_raw_structures(k):
            alg = ra.expand(structure)
            assert_law_subsets_match(alg)
            # witnesses keep the table's order whatever the order asked for
            assert ra.check_axioms(alg, every_law[::-1]) == ra.check_axioms(alg)

    def test_every_four_atom_representative(self):
        for structure in four_atom_representatives():
            assert_law_subsets_match(ra.expand(structure))

    @pytest.mark.parametrize("laws", [("sa",), ("triangle",), ("symmetric", "Boolean")])
    def test_unknown_law_rejected(self, laws):
        with pytest.raises(ValueError, match="unknown law"):
            ra.check_axioms(ra.minimal_point_algebra(2), laws=laws)


class TestWitnessOrder:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_witnesses_independent_of_cycle_order(self, k):
        # equal structures whose cycle sets were built in opposite orders
        for seed in range(10):
            for p in (0.1, 0.2, 0.3, 0.6):
                structure = seeded_structure(k, seed, "dropped", p)
                copy = ra.AtomStructure(
                    k, structure.converse, structure.identity_atoms,
                    frozenset(sorted(structure.cycles, reverse=True)),
                )
                assert copy == structure
                assert ra.triangle_by_atoms(copy) == ra.triangle_by_atoms(structure), (seed, p)


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


def table_inputs():
    """Every structure of ``all_raw_structures`` for k <= 3, every raw
    structure of the 4-atom search (``all_raw_structures(4)`` has 2^28
    members), 40 seeded k=4 structures that are not triangle-closed, and
    the five algebras built directly."""
    for k in (1, 2, 3):
        for structure in all_raw_structures(k):
            yield ra.expand(structure)
    for _, _, structure in search_raw_structures(4):
        yield ra.expand(structure)
    for seed in range(40):
        yield ra.expand(seeded_structure(4, seed, ("raw", "dropped")[seed % 2], 0.3))
    yield ra.proper_algebra(1)
    yield ra.proper_algebra(2)
    for base in (1, 2, 3):
        yield ra.minimal_point_algebra(base)


# 200 seeded cycle sets over k = 1..5 atoms; k = 5 has 32 elements, the cap
# of the element-level check
RANDOM_CASES = [
    (1 + i % 5, i, ("raw", "dropped", "closed")[i % 3], (0.05, 0.2, 0.5)[i // 5 % 3])
    for i in range(200)
]


# the laws that compose, in witness order
COMPOSING_LAWS = ("identity", "semiassociative", "associative", "reflexive", "subadditive")


def reference_laws(alg):
    """Each law of ``COMPOSING_LAWS`` as its failing cases over every
    element, every pair of elements or every triple of atoms, in order, on a
    table built from ``compose``: the definitions that the atom-level scans
    of ``check_axioms`` must reproduce, witnesses included."""
    elements = alg.elements()
    table = [[alg.compose(x, y) for y in elements] for x in elements]
    e, one = alg.identity, alg.one
    return {
        "identity": (str(x) for x in elements if table[e][x] != x or table[x][e] != x),
        "semiassociative": (str(x) for x in elements
                            if table[(x1 := table[x][one])][one] != x1),
        "associative": (f"{a},{b},{c}" for a, b, c in itertools.product(alg.atoms(), repeat=3)
                        if table[table[a][b]][c] != table[a][table[b][c]]),
        "reflexive": (str(x) for x in elements if x & table[x][x] != x),
        # y & ~x is the meet of y with the complement of x
        "subadditive": (f"{x},{y}" for x, y in itertools.product(elements, repeat=2)
                        if table[x][y & ~x] | x | y != x | y),
    }


def assert_laws_match_reference(alg):
    verdicts, witnesses = {}, []
    for law, cases in reference_laws(alg).items():
        witness = next(cases, None)
        if witness is not None:
            witnesses.append((law, witness))
        verdicts[ra.LAWS[law][0]] = witness is None
    expected = ra.AxiomReport(**verdicts, witnesses=tuple(witnesses))
    assert ra.check_axioms(alg, COMPOSING_LAWS) == expected, alg.comp_atom


class TestAtomLevelLaws:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_raw_structure(self, k):
        for structure in all_raw_structures(k):
            assert_laws_match_reference(ra.expand(structure))

    def test_every_four_atom_representative(self):
        for structure in four_atom_representatives():
            assert_laws_match_reference(ra.expand(structure))

    @pytest.mark.parametrize("case", RANDOM_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_seeded_structures(self, case):
        assert_laws_match_reference(ra.expand(seeded_structure(*case)))

    def test_algebras_built_directly(self):
        # identities of more than one atom
        for alg in [ra.proper_algebra(1), ra.proper_algebra(2)] + [
            ra.minimal_point_algebra(base) for base in (1, 2, 3)
        ]:
            assert_laws_match_reference(alg)


class TestPackedTriangle:
    """The element-level triple loop against the cycle-closure check."""

    def test_raw_structures_match_the_triple_loop(self):
        for alg in table_inputs():
            by_atoms, _ = ra.triangle_by_atoms(ra.structure_of(alg))
            assert ra.triangle_by_elements(alg)[0] == by_atoms, alg.comp_atom

    @pytest.mark.parametrize("case", RANDOM_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_seeded_structures_match_the_triple_loop(self, case):
        structure = seeded_structure(*case)
        alg = ra.expand(structure)
        assert alg.one + 1 <= ra.ELEMENT_TRIANGLE_CAP
        assert ra.triangle_by_elements(alg)[0] == ra.triangle_by_atoms(structure)[0]

    def test_seeded_cases_pass_and_fail(self):
        verdicts = {
            (case[0], ra.triangle_by_elements(ra.expand(seeded_structure(*case)))[0])
            for case in RANDOM_CASES
        }
        # over one atom every cycle set is closed: (0, 0, 0) is its own image
        assert verdicts == {(1, True)} | {(k, ok) for k in range(2, 6) for ok in (True, False)}
