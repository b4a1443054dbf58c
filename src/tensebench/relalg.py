"""Finite relation-type algebras from atom structures, the axiom suite, the
three minimal algebras, and a pluggable composition evaluator over the
symbolic carrier.

An atom structure presents the algebra by its atoms: an involutive converse
permutation, the set of identity atoms, and the allowed triples (a, b, c)
meaning c lies below a*b.  Expansion lifts everything additively to the
powerset.  The proper algebras over explicit 1/2/3-element base sets are
built directly from binary relations, so the minimal algebras derive from
first principles rather than transcription.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import symbolic as sym
from . import terms as tm
from .frames import CapacityError
from .sparam import SParameter
from .symbolic import SymbolicSet

MAX_ATOMS = 12
ELEMENT_TRIANGLE_CAP = 32  # element-level triangle enumeration up to this many elements


class ConfigurationError(Exception):
    """A required runtime configuration (e.g. a composition scheme) is missing."""


@dataclass(frozen=True)
class AtomStructure:
    atom_count: int
    converse: tuple[int, ...]
    identity_atoms: frozenset[int]
    cycles: frozenset[tuple[int, int, int]]  # (a, b, c): c <= a*b

    def __post_init__(self):
        k = self.atom_count
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
        rest = x
        while rest:
            low = rest & -rest
            row = self.comp_atom[low.bit_length() - 1]
            others = y
            while others:
                lo2 = others & -others
                out |= row[lo2.bit_length() - 1]
                others ^= lo2
            rest ^= low
        return out

    def converse(self, x: int) -> int:
        out = 0
        rest = x
        while rest:
            low = rest & -rest
            out |= self.conv_atom[low.bit_length() - 1]
            rest ^= low
        return out

    def neg(self, x: int) -> int:
        return self.one ^ x

    def atoms(self):
        return tuple(1 << i for i in range(self.atom_count))

    def elements(self):
        return range(self.one + 1)


def expand(structure: AtomStructure) -> FiniteRelAlgebra:
    """Additive expansion of an atom structure; capacity-limited."""
    k = structure.atom_count
    if k > MAX_ATOMS:
        raise CapacityError(f"{k} atoms exceeds the {MAX_ATOMS}-atom cap")
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
    under the six transforms."""
    cv = structure.converse
    for triple in structure.cycles:
        for transform in PEIRCE_TRANSFORMS:
            image = transform(*triple, cv)
            if image not in structure.cycles:
                return False, f"cycle {triple} maps to missing {image}"
    return True, None


def triangle_by_elements(alg: FiniteRelAlgebra) -> tuple[bool, str | None]:
    """Ground-truth check: the three zero-conditions over all element triples."""
    for x in alg.elements():
        cx = alg.converse(x)
        for y in alg.elements():
            xy = alg.compose(x, y)
            cy = alg.converse(y)
            for z in alg.elements():
                left = xy & z == 0
                mid = alg.compose(cx, z) & y == 0
                right = alg.compose(z, cy) & x == 0
                if not (left == mid == right):
                    return False, f"elements {x},{y},{z}: {left}/{mid}/{right}"
    return True, None


@dataclass(frozen=True)
class AxiomReport:
    boolean_reduct: bool
    identity: bool
    triangle_atom_level: bool
    triangle_element_level: bool | None
    semiassociative: bool
    associative: bool
    reflexive: bool
    symmetric: bool
    subadditive: bool
    witnesses: tuple[tuple[str, str], ...] = ()

    @property
    def triangle(self) -> bool:
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


def check_axioms(alg: FiniteRelAlgebra, structure: AtomStructure | None = None) -> AxiomReport:
    witnesses: list[tuple[str, str]] = []

    def note(law: str, value: str):
        witnesses.append((law, value))

    boolean_ok = True
    for x in alg.elements():
        if x & alg.neg(x) != 0 or x | alg.neg(x) != alg.one:
            boolean_ok = False
            note("boolean", str(x))
            break

    identity_ok = True
    e = alg.identity
    for x in alg.elements():
        if alg.compose(e, x) != x or alg.compose(x, e) != x:
            identity_ok = False
            note("identity", str(x))
            break

    atoms_ok = True
    atom_witness = None
    if structure is not None:
        atoms_ok, atom_witness = triangle_by_atoms(structure)
    else:
        atoms_ok, atom_witness = triangle_by_atoms(structure_of(alg))
    if atom_witness:
        note("triangle-atoms", atom_witness)

    element_ok: bool | None = None
    if alg.one + 1 <= ELEMENT_TRIANGLE_CAP:
        element_ok, wit = triangle_by_elements(alg)
        if wit:
            note("triangle-elements", wit)

    semi_ok = True
    for x in alg.elements():
        x1 = alg.compose(x, alg.one)
        if alg.compose(x1, alg.one) != x1:
            semi_ok = False
            note("semiassociative", str(x))
            break

    assoc_ok = True
    for a in alg.atoms():
        for b in alg.atoms():
            ab = alg.compose(a, b)
            for c in alg.atoms():
                if alg.compose(ab, c) != alg.compose(a, alg.compose(b, c)):
                    assoc_ok = False
                    note("associative", f"{a},{b},{c}")
                    break
            if not assoc_ok:
                break
        if not assoc_ok:
            break

    reflexive_ok = True
    for x in alg.elements():
        if x & alg.compose(x, x) != x:
            reflexive_ok = False
            note("reflexive", str(x))
            break

    symmetric_ok = all(alg.conv_atom[a] == 1 << a for a in range(alg.atom_count))
    if not symmetric_ok:
        note("symmetric", "converse moves an atom")

    subadd_ok = True
    for x in alg.elements():
        nx = alg.neg(x)
        for y in alg.elements():
            lhs = alg.compose(x, nx & y)
            if lhs | (x | y) != (x | y):
                subadd_ok = False
                note("subadditive", f"{x},{y}")
                break
        if not subadd_ok:
            break

    return AxiomReport(
        boolean_ok, identity_ok, atoms_ok, element_ok, semi_ok, assoc_ok,
        reflexive_ok, symmetric_ok, subadd_ok, tuple(witnesses),
    )


def structure_of(alg: FiniteRelAlgebra) -> AtomStructure:
    """Read the presenting atom structure back off the algebra."""
    k = alg.atom_count
    cycles = set()
    for a in range(k):
        for b in range(k):
            mask = alg.comp_atom[a][b]
            for c in range(k):
                if mask >> c & 1:
                    cycles.add((a, b, c))
    converse = tuple(alg.conv_atom[a].bit_length() - 1 for a in range(k))
    identity = frozenset(c for c in range(k) if alg.identity >> c & 1)
    return AtomStructure(k, converse, identity, frozenset(cycles))


# ---------------------------------------------------------------------------
# minimal subalgebras


def minimal_subalgebra(alg: FiniteRelAlgebra) -> FiniteRelAlgebra:
    """The subalgebra generated by the constants 0, 1, e."""
    closed = {0, alg.one, alg.identity}
    frontier = True
    while frontier:
        frontier = False
        current = list(closed)
        for x in current:
            for value in (alg.neg(x), alg.converse(x)):
                if value not in closed:
                    closed.add(value)
                    frontier = True
        for x in current:
            for y in current:
                for value in (x | y, x & y, alg.compose(x, y)):
                    if value not in closed:
                        closed.add(value)
                        frontier = True
    # atoms of the Boolean subalgebra partition the top element
    members = sorted(closed)
    new_atoms = []
    for x in members:
        if x == 0:
            continue
        if not any(0 < y < x and y & x == y for y in members):
            new_atoms.append(x)
    index = {mask: i for i, mask in enumerate(new_atoms)}

    def decompose(mask: int) -> int:
        out = 0
        for atom_mask, i in index.items():
            if atom_mask & mask == atom_mask:
                out |= 1 << i
        return out

    comp = tuple(
        tuple(decompose(alg.compose(a, b)) for b in new_atoms) for a in new_atoms
    )
    conv = tuple(decompose(alg.converse(a)) for a in new_atoms)
    return FiniteRelAlgebra(comp, conv, decompose(alg.identity))


def minimal_point_algebra(base_size: int) -> FiniteRelAlgebra:
    """The minimal subalgebra of the full algebra on a base of that size."""
    return minimal_subalgebra(proper_algebra(base_size))


# ---------------------------------------------------------------------------
# composition over the symbolic carrier


@dataclass(frozen=True)
class CompositionScheme:
    comp_term: tm.Term  # binary in x, y
    conv_term: tm.Term  # unary in x

    def __post_init__(self):
        if not tm.free_vars(self.comp_term) <= {"x", "y"}:
            raise ValueError("composition term may only use x and y")
        if not tm.free_vars(self.conv_term) <= {"x"}:
            raise ValueError("converse term may only use x")


def parse_scheme(text: str) -> CompositionScheme:
    comp = conv = None
    for line in text.splitlines():
        body = line.strip()
        if body.startswith("comp:"):
            comp = tm.parse_term(body[5:])
        elif body.startswith("conv:"):
            conv = tm.parse_term(body[5:])
        elif body:
            raise ValueError(f"unrecognized scheme line: {line!r}")
    if comp is None:
        raise ValueError("scheme file must define 'comp: <term in x,y>'")
    if conv is None:
        conv = tm.Var("x")
    return CompositionScheme(comp, conv)


def rel_compose_symbolic(
    s: SParameter, scheme: CompositionScheme | None, x: SymbolicSet, y: SymbolicSet
) -> SymbolicSet:
    """Evaluate the configured composition term at x, y over the symbolic
    carrier.  No default scheme ships: the defining terms come from the known
    term equivalence between total tense algebras and symmetric r-algebras
    (Jipsen-Kramer-Maddux) and must be supplied as configuration."""
    if scheme is None:
        raise ConfigurationError(
            "no composition scheme configured; supply a scheme file with "
            "'comp:'/'conv:' terms transcribed from the tense/r-algebra term "
            "equivalence (Jipsen-Kramer-Maddux, Theorem 7)"
        )
    handle = tm.SymbolicHandle(s)
    return tm.eval_term(scheme.comp_term, handle, {"x": x, "y": y})


def associativity_probe(
    s: SParameter,
    scheme: CompositionScheme | None,
    x: SymbolicSet,
    y: SymbolicSet,
    z: SymbolicSet,
) -> tuple[SymbolicSet, SymbolicSet, bool]:
    """Compare x*(y*z) against (x*y)*z under the configured scheme; returns
    both values and whether they are distinct."""
    left = rel_compose_symbolic(s, scheme, x, rel_compose_symbolic(s, scheme, y, z))
    right = rel_compose_symbolic(s, scheme, rel_compose_symbolic(s, scheme, x, y), z)
    return left, right, not sym.is_equal(left, right)
