"""Finite relation-type algebras from atom structures, the axiom suite and
the three minimal algebras.

An atom structure presents the algebra by its atoms: an involutive converse
permutation, the set of identity atoms, and the allowed triples (a, b, c)
meaning c lies below a*b.  Expansion lifts everything additively to the
powerset.  The proper algebras over explicit 1/2/3-element base sets are
built directly from binary relations, so the minimal algebras derive from
first principles rather than transcription.

Composition has one path, ``FiniteRelAlgebra.compose``, which joins the
products of atoms.  Every law of the axiom suite reads the algebra alone
and is decided on atoms, or on an element and an atom; only
``triangle_by_elements``, the plain loop over every triple of elements,
capped at ``ELEMENT_TRIANGLE_CAP`` elements, builds a table for itself.
The minimal subalgebra is found on atoms too: its atoms are the blocks of
``frames.generated_partition``, and no element outside them is built.

Composition over the symbolic carrier of a tense algebra has no code here:
a composition term in ``x`` and ``y`` is evaluated like any other term, by
``terms.eval_term`` (``tw eval --term ... --env y=...``).
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from itertools import product

from .frames import CapacityError, _gather, generated_partition, iter_bits

MAX_ATOMS = 12
ELEMENT_TRIANGLE_CAP = 32  # element-level triangle enumeration up to this many elements


@dataclass(frozen=True)
class AtomStructure:
    atom_count: int
    converse: tuple[int, ...]
    identity_atoms: frozenset[int]
    cycles: frozenset[tuple[int, int, int]]  # (a, b, c): c <= a*b

    def __post_init__(self):
        k = self.atom_count
        if k < 0:
            raise ValueError(f"atom count must not be negative, got {k}")
        if sorted(self.converse) != list(range(k)):
            raise ValueError("converse must be a permutation of the atoms")
        if any(self.converse[self.converse[a]] != a for a in range(k)):
            raise ValueError("converse must be an involution")
        if not all(0 <= a < k for a in self.identity_atoms):
            raise ValueError("identity atom out of range")
        for triple in self.cycles:
            if len(triple) != 3 or not all(0 <= a < k for a in triple):
                raise ValueError(f"bad cycle {triple}")

    def to_text(self) -> str:
        lines = [f"atoms {self.atom_count}"]
        for a in range(self.atom_count):
            if a <= self.converse[a]:
                lines.append(f"conv {a} {self.converse[a]}")
        for a in sorted(self.identity_atoms):
            lines.append(f"id {a}")
        for a, b, c in sorted(self.cycles):
            lines.append(f"cycle {a} {b} {c}")
        return "\n".join(lines) + "\n"


# numbers that follow each keyword of the atom-structure format
_LINE_ARITY = {"atoms": 1, "conv": 2, "id": 1, "cycle": 3}


def parse_atom_structure(text: str) -> AtomStructure:
    count = None
    conv: dict[int, int] = {}
    identity = set()
    cycles = set()
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        arity = _LINE_ARITY.get(fields[0])
        if arity is None:
            raise ValueError(f"unrecognized line: {line!r}")
        if len(fields) != arity + 1:
            raise ValueError(f"'{fields[0]}' takes {arity} numbers: {line!r}")
        values = [int(field) for field in fields[1:]]
        if fields[0] == "atoms":
            count = values[0]
        elif fields[0] == "conv":
            i, j = values
            conv[i] = j
            conv[j] = i
        elif fields[0] == "id":
            identity.add(values[0])
        else:
            cycles.add(tuple(values))
    if count is None:
        raise ValueError("missing 'atoms <count>' line")
    _check_atom_cap(count)
    converse = tuple(conv.get(a, a) for a in range(count))
    return AtomStructure(count, converse, frozenset(identity), frozenset(cycles))


class FiniteRelAlgebra:
    """Powerset of the atoms with additive composition and converse."""

    def __init__(
        self,
        comp_atom: tuple[tuple[int, ...], ...],
        conv_atom: tuple[int, ...],
        identity: int,
    ):
        self.atom_count = len(conv_atom)
        self.comp_atom = comp_atom
        self.conv_atom = conv_atom
        self.identity = identity
        self.one = (1 << self.atom_count) - 1

    def compose(self, x: int, y: int) -> int:
        out = 0
        for a in iter_bits(x):
            out |= _gather(self.comp_atom[a], y)
        return out

    def converse(self, x: int) -> int:
        return _gather(self.conv_atom, x)

    def neg(self, x: int) -> int:
        return self.one ^ x

    def atoms(self):
        return tuple(1 << i for i in range(self.atom_count))

    def elements(self):
        return range(self.one + 1)


def _check_atom_cap(k: int):
    if k > MAX_ATOMS:
        raise CapacityError(f"{k} atoms exceeds the {MAX_ATOMS}-atom cap")


def expand(structure: AtomStructure) -> FiniteRelAlgebra:
    """Additive expansion of an atom structure; capacity-limited."""
    k = structure.atom_count
    _check_atom_cap(k)
    comp = [[0] * k for _ in range(k)]
    for a, b, c in structure.cycles:
        comp[a][b] |= 1 << c
    conv = tuple(1 << structure.converse[a] for a in range(k))
    identity = 0
    for a in structure.identity_atoms:
        identity |= 1 << a
    return FiniteRelAlgebra(tuple(tuple(row) for row in comp), conv, identity)


def proper_algebra(base_size: int) -> FiniteRelAlgebra:
    """The full algebra of binary relations on an explicit base set."""
    pairs = [(i, j) for i in range(base_size) for j in range(base_size)]
    index = {pair: a for a, pair in enumerate(pairs)}
    cycles = set()
    for (i, j) in pairs:
        for (k, l) in pairs:
            if j == k:
                cycles.add((index[(i, j)], index[(k, l)], index[(i, l)]))
    converse = tuple(index[(j, i)] for (i, j) in pairs)
    identity = frozenset(index[(i, i)] for i in range(base_size))
    return expand(AtomStructure(len(pairs), converse, identity, frozenset(cycles)))


# ---------------------------------------------------------------------------
# the axiom suite


PEIRCE_TRANSFORMS = (
    lambda a, b, c, cv: (a, b, c),
    lambda a, b, c, cv: (cv[a], c, b),
    lambda a, b, c, cv: (c, cv[b], a),
    lambda a, b, c, cv: (b, cv[c], cv[a]),
    lambda a, b, c, cv: (cv[c], a, cv[b]),
    lambda a, b, c, cv: (cv[b], cv[a], cv[c]),
)


def triangle_by_atoms(structure: AtomStructure) -> tuple[bool, str | None]:
    """The triangle laws hold in the expansion iff the cycle set is closed
    under the six transforms.  Cycles are scanned in sorted order, so the
    witness depends on the structure, not on how its cycle set was built."""
    cv = structure.converse
    for triple in sorted(structure.cycles):
        for transform in PEIRCE_TRANSFORMS:
            image = transform(*triple, cv)
            if image not in structure.cycles:
                return False, f"cycle {triple} maps to missing {image}"
    return True, None


def triangle_by_elements(alg: FiniteRelAlgebra) -> tuple[bool, str | None]:
    """Ground-truth check: the three zero-conditions over all element triples.

    For every x, y, z in order, the meets x;y & z, x˘;z & y and z;y˘ & x must
    be 0 together or nonzero together; the first triple where they are not
    is the witness.  The products come from ``compose``, tabulated here: the
    check runs only up to ``ELEMENT_TRIANGLE_CAP`` elements, so the table has
    at most 1024 entries."""
    elements = alg.elements()
    table = [[alg.compose(x, y) for y in elements] for x in elements]
    conv = [alg.converse(x) for x in elements]
    for x in elements:
        row = table[x]
        conv_row = table[conv[x]]
        for y in elements:
            xy = row[y]
            cy = conv[y]
            for z in elements:
                left = xy & z == 0
                mid = conv_row[z] & y == 0
                right = table[z][cy] & x == 0
                if not (left == mid == right):
                    return False, f"elements {x},{y},{z}: {left}/{mid}/{right}"
    return True, None


@dataclass(frozen=True)
class AxiomReport:
    """The verdict of each law; a law that was not decided is None."""
    boolean_reduct: bool | None = None
    identity: bool | None = None
    triangle_atom_level: bool | None = None
    triangle_element_level: bool | None = None
    semiassociative: bool | None = None
    associative: bool | None = None
    reflexive: bool | None = None
    symmetric: bool | None = None
    subadditive: bool | None = None
    witnesses: tuple[tuple[str, str], ...] = ()

    @property
    def triangle(self) -> bool | None:
        if self.triangle_element_level is not None:
            return self.triangle_element_level
        return self.triangle_atom_level

    def to_records(self) -> str:
        fields = [
            ("boolean", self.boolean_reduct),
            ("identity", self.identity),
            ("triangle", self.triangle),
            ("semiassociative", self.semiassociative),
            ("associative", self.associative),
            ("reflexive", self.reflexive),
            ("symmetric", self.symmetric),
            ("subadditive", self.subadditive),
        ]
        line = " ".join(f"{name}={'pass' if ok else 'fail'}" for name, ok in fields)
        extra = "".join(
            f'\nwitness law={law} value="{value}"' for law, value in self.witnesses
        )
        return line + extra + "\n"


# Each law's failing cases in an algebra, as witness texts; the first one is
# the law's witness; a law that cannot be decided returns None.  Every law
# reads the algebra alone.
#
# Composition is additive in each argument, so identity, semiassociativity
# and reflexivity hold at every element once they hold at its atoms (for
# reflexivity: a <= a;a <= x;x for each atom a of x).  A failing element x
# thus has a failing atom 1 << a <= x, and the first failing element in
# increasing order is an atom: these laws scan the atoms only.  Likewise
# x;(y & ~x) is the join of x;b over the atoms b of y outside x, so a pair
# (x, y) fails subadditivity only if some such pair (x, 1 << b) fails, and
# for each x its first failing y is an atom.


def _boolean_failures(alg: FiniteRelAlgebra):
    return (str(x) for x in alg.elements()
            if x & alg.neg(x) != 0 or x | alg.neg(x) != alg.one)


def _identity_failures(alg: FiniteRelAlgebra):
    e = alg.identity
    return (str(a) for a in alg.atoms()
            if alg.compose(e, a) != a or alg.compose(a, e) != a)


def _triangle_atom_failures(alg: FiniteRelAlgebra):
    ok, witness = triangle_by_atoms(structure_of(alg))
    return iter(() if ok else (witness,))


def _triangle_element_failures(alg: FiniteRelAlgebra):
    if alg.one + 1 > ELEMENT_TRIANGLE_CAP:
        return None
    ok, witness = triangle_by_elements(alg)
    return iter(() if ok else (witness,))


def _semiassociative_failures(alg: FiniteRelAlgebra):
    compose, one = alg.compose, alg.one
    return (str(a) for a in alg.atoms() if compose(a1 := compose(a, one), one) != a1)


def _associative_failures(alg: FiniteRelAlgebra):
    compose = alg.compose
    return (f"{a},{b},{c}" for a, b, c in product(alg.atoms(), repeat=3)
            if compose(compose(a, b), c) != compose(a, compose(b, c)))


def _reflexive_failures(alg: FiniteRelAlgebra):
    return (str(a) for a in alg.atoms() if a & alg.compose(a, a) != a)


def _symmetric_failures(alg: FiniteRelAlgebra):
    return ("converse moves an atom" for a in range(alg.atom_count)
            if alg.conv_atom[a] != 1 << a)


def _subadditive_failures(alg: FiniteRelAlgebra):
    # x;b is the join of column b of the atom products over the atoms of x
    columns = [tuple(row[b] for row in alg.comp_atom) for b in range(alg.atom_count)]
    return (f"{x},{1 << b}" for x in alg.elements() for b, column in enumerate(columns)
            if not x >> b & 1 and _gather(column, x) & ~(x | 1 << b))


# law -> (its `AxiomReport` field, its failing cases), in witness order
LAWS = {
    "boolean": ("boolean_reduct", _boolean_failures),
    "identity": ("identity", _identity_failures),
    "triangle-atoms": ("triangle_atom_level", _triangle_atom_failures),
    "triangle-elements": ("triangle_element_level", _triangle_element_failures),
    "semiassociative": ("semiassociative", _semiassociative_failures),
    "associative": ("associative", _associative_failures),
    "reflexive": ("reflexive", _reflexive_failures),
    "symmetric": ("symmetric", _symmetric_failures),
    "subadditive": ("subadditive", _subadditive_failures),
}


def check_axioms(alg: FiniteRelAlgebra, laws: Collection[str] = tuple(LAWS)) -> AxiomReport:
    """Decide the named laws, every law by default.  A law holds when it has
    no failing case; otherwise its first case is its witness.  Witnesses
    follow the order of ``LAWS`` whatever the order of ``laws``."""
    unknown = sorted(set(laws) - LAWS.keys())
    if unknown:
        raise ValueError(f"unknown law {unknown[0]!r} (expected some of {','.join(LAWS)})")
    verdicts: dict[str, bool] = {}
    witnesses: list[tuple[str, str]] = []
    for law, (field, failures) in LAWS.items():
        if law not in laws:
            continue
        cases = failures(alg)
        if cases is None:
            continue
        witness = next(cases, None)
        if witness is not None:
            witnesses.append((law, witness))
        verdicts[field] = witness is None
    return AxiomReport(**verdicts, witnesses=tuple(witnesses))


def structure_of(alg: FiniteRelAlgebra) -> AtomStructure:
    """Read the presenting atom structure back off the algebra."""
    k = alg.atom_count
    cycles = set()
    for a in range(k):
        for b in range(k):
            cycles.update((a, b, c) for c in iter_bits(alg.comp_atom[a][b]))
    converse = tuple(alg.conv_atom[a].bit_length() - 1 for a in range(k))
    identity = frozenset(iter_bits(alg.identity))
    return AtomStructure(k, converse, identity, frozenset(cycles))


# ---------------------------------------------------------------------------
# minimal subalgebras


def minimal_subalgebra(alg: FiniteRelAlgebra) -> FiniteRelAlgebra:
    """The subalgebra generated by the constants 0, 1, e.

    Its atoms are the blocks of ``generated_partition``, in increasing mask
    order.  A product or converse of blocks is a union of blocks, so it maps
    to the new atoms by gathering a table that lifts each old atom to the
    new atom of its block."""
    blocks = generated_partition(
        (alg.identity,), alg.one, (alg.converse,), (alg.compose,)
    )
    lift = [0] * alg.atom_count
    for i, block in enumerate(blocks):
        for a in iter_bits(block):
            lift[a] = 1 << i
    comp = tuple(
        tuple(_gather(lift, alg.compose(x, y)) for y in blocks) for x in blocks
    )
    conv = tuple(_gather(lift, alg.converse(x)) for x in blocks)
    return FiniteRelAlgebra(comp, conv, _gather(lift, alg.identity))


def minimal_point_algebra(base_size: int) -> FiniteRelAlgebra:
    """The minimal subalgebra of the full algebra on a base of that size."""
    return minimal_subalgebra(proper_algebra(base_size))
