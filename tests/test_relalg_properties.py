"""Property tests of the atom-structure file format.

Written with hypothesis and derandomized, so every run draws the same
examples.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from test_relalg import assert_laws_match_reference
from tensebench import relalg as ra
from tensebench.frames import CapacityError


@st.composite
def atom_structures(draw, max_atoms=6):
    """A valid structure: an involution built from disjoint swaps, any
    identity atoms and any set of cycles."""
    k = draw(st.integers(0, max_atoms))
    if k == 0:
        return ra.AtomStructure(0, (), frozenset(), frozenset())
    order = draw(st.permutations(range(k)))
    converse = list(range(k))
    for i in range(draw(st.integers(0, k // 2))):
        a, b = order[2 * i], order[2 * i + 1]
        converse[a], converse[b] = b, a
    atom = st.integers(0, k - 1)
    identity = draw(st.frozensets(atom))
    cycles = draw(st.frozensets(st.tuples(atom, atom, atom), max_size=40))
    return ra.AtomStructure(k, tuple(converse), identity, cycles)


@settings(derandomize=True, max_examples=300)
@given(atom_structures())
def test_text_round_trip(structure):
    assert ra.parse_atom_structure(structure.to_text()) == structure


# well-formed lines over small, negative and over-cap numbers, and junk: an
# unknown keyword, a wrong field count or a field that is not an integer
SMALL = st.integers(-1, 5).map(str)
COUNT = st.one_of(SMALL, st.sampled_from(["12", "13", "1000000000000"]))
ATOMS_LINE = st.builds("atoms {}".format, COUNT)
JUNK = st.builds(
    lambda keyword, fields: " ".join([keyword, *fields]),
    st.sampled_from(["atoms", "conv", "id", "cycle", "atom", "#", ""]),
    st.lists(st.sampled_from(["0", "2", "x", "1.5", "99999999999999999999"]), max_size=4),
)
LINE = st.one_of(
    ATOMS_LINE,
    st.builds("conv {} {}".format, SMALL, SMALL),
    st.builds("id {}".format, SMALL),
    st.builds("cycle {} {} {}".format, SMALL, SMALL, SMALL),
    JUNK,
)


@settings(derandomize=True, max_examples=300)
@given(st.lists(ATOMS_LINE, max_size=1), st.lists(LINE, max_size=8))
def test_line_soup_parses_or_is_refused(header, lines):
    try:
        ra.parse_atom_structure("\n".join(header + lines))
    except (ValueError, CapacityError):
        pass


@settings(derandomize=True, max_examples=300)
@given(atom_structures())
def test_laws_decided_on_atoms_match_the_reference(structure):
    # any identity atoms and any converse, up to 64 elements
    assert_laws_match_reference(ra.expand(structure))
