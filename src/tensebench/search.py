"""Exhaustive desk-scale enumeration: total frames up to isomorphism, their
complex algebras and minimality classification, and small relation-type atom
structures.

Canonical labeling is by the lexicographically least adjacency matrix (or
serialized structure) over all vertex/atom permutations; at these sizes the
permutation count is tiny and nothing cleverer is warranted.  Work items are
independent, results are merged by canonical key, and reports are identical
across worker counts.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from . import relalg
from .audit import parallel_map
from .frames import CapacityError, Frame, FiniteTenseAlgebra, VertexId
from .relalg import AtomStructure

MAX_FRAME_SIZE = 5
MAX_STRUCTURE_ATOMS = 4
SUBALGEBRA_CAP = 1 << 10


@dataclass(frozen=True)
class SearchReport:
    kind: str  # "frames" | "structures"
    size: int
    constraints: tuple[str, ...]
    raw_count: int
    iso_count: int
    representatives: tuple[str, ...]
    elapsed_ms: float = field(compare=False, default=0.0)

    def to_records(self) -> str:
        lines = [
            f"search={self.kind} k={self.size} "
            f"constraints={','.join(self.constraints) or 'none'} "
            f"raw={self.raw_count} iso={self.iso_count}"
        ]
        for rep in self.representatives:
            lines.append(f"rep {rep}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# total frames up to isomorphism


def _matrix_bits(adj: tuple[tuple[bool, ...], ...]) -> int:
    k = len(adj)
    bits = 0
    pos = 0
    for i in range(k):
        for j in range(k):
            if adj[i][j]:
                bits |= 1 << pos
            pos += 1
    return bits


def _canonical_matrix(adj: tuple[tuple[bool, ...], ...]) -> int:
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


def _total_frame_chunk(args) -> list[tuple[int, int]]:
    """Enumerate a slice of the choice space; returns (canonical, raw) keys."""
    k, lo, hi = args
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    out = []
    for code in range(lo, hi):
        adj = [[i == j for j in range(k)] for i in range(k)]
        rest = code
        for (i, j) in pairs:
            choice = rest % 3
            rest //= 3
            if choice in (0, 2):
                adj[i][j] = True
            if choice in (1, 2):
                adj[j][i] = True
        matrix = tuple(tuple(row) for row in adj)
        out.append((_canonical_matrix(matrix), _matrix_bits(matrix)))
    return out


def _frame_from_bits(k: int, bits: int) -> Frame:
    vertices = [VertexId(0, i + 1) for i in range(k)]
    edges = []
    pos = 0
    for i in range(k):
        for j in range(k):
            if bits >> pos & 1:
                edges.append((vertices[i], vertices[j]))
            pos += 1
    return Frame(vertices, edges)


def enumerate_total_frames(k: int, jobs: int = 1) -> tuple[SearchReport, list[Frame]]:
    """One representative per isomorphism class of total relations on k points."""
    if k < 1 or k > MAX_FRAME_SIZE:
        raise CapacityError(f"total-frame enumeration supports 1 <= k <= {MAX_FRAME_SIZE}")
    start = time.perf_counter()
    pair_count = k * (k - 1) // 2
    space = 3 ** pair_count
    chunk = max(1, space // max(jobs * 4, 1))
    items = [(k, lo, min(lo + chunk, space)) for lo in range(0, space, chunk)]
    results = parallel_map(_total_frame_chunk, items, jobs)
    canon_to_bits: dict[int, int] = {}
    raw = 0
    for block in results:
        for canonical, bits in block:
            raw += 1
            if canonical not in canon_to_bits:
                canon_to_bits[canonical] = canonical
    keys = sorted(canon_to_bits)
    frames = [_frame_from_bits(k, bits) for bits in keys]
    elapsed = (time.perf_counter() - start) * 1000
    report = SearchReport(
        "frames", k, (), raw, len(keys),
        tuple(f"matrix={bits:0{k * k}b}" for bits in keys), elapsed,
    )
    return report, frames


# ---------------------------------------------------------------------------
# minimality classification and the discriminator check


@dataclass(frozen=True)
class Classification:
    kind: str  # "TrivialSize2" | "MinimalCoverCandidate" | "NotMinimal"
    witness: int | None = None  # element generating a proper subalgebra

    def __str__(self) -> str:
        if self.kind == "NotMinimal":
            return f"NotMinimal(witness={self.witness})"
        return self.kind


def _generated_subalgebra(alg: FiniteTenseAlgebra, x: int) -> set[int]:
    closed = {0, alg.one, x}
    frontier = True
    while frontier:
        frontier = False
        current = list(closed)
        for a in current:
            for value in (alg.neg(a), alg.f(a), alg.g(a)):
                if value not in closed:
                    closed.add(value)
                    frontier = True
        for a in current:
            for b in current:
                for value in (a | b, a & b):
                    if value not in closed:
                        closed.add(value)
                        frontier = True
    return closed


def classify_minimal(alg: FiniteTenseAlgebra) -> Classification:
    """Whether every element outside {0, 1} generates the whole algebra.

    This is a finite heuristic filter for cover candidates, not a
    theorem-level certificate.
    """
    size = alg.one + 1
    if size > SUBALGEBRA_CAP:
        raise CapacityError(f"{size} elements exceeds the {SUBALGEBRA_CAP} cap")
    if size == 2:
        return Classification("TrivialSize2")
    for x in range(1, alg.one):
        if len(_generated_subalgebra(alg, x)) < size:
            return Classification("NotMinimal", x)
    return Classification("MinimalCoverCandidate")


def check_discriminator(alg: FiniteTenseAlgebra) -> bool:
    """Verify the unary unit u(x) = f(x) | g(x) | x and then the induced
    ternary discriminator by full enumeration.  Requires a total algebra."""
    if not alg.is_total_algebra():
        raise ValueError("discriminator check requires a total algebra")

    def u(x: int) -> int:
        return alg.f(x) | alg.g(x) | x

    if u(0) != 0:
        return False
    if any(u(x) != alg.one for x in range(1, alg.one + 1)):
        return False
    for x in alg.elements():
        for y in alg.elements():
            gate = u(x ^ y)
            for z in alg.elements():
                value = (x & gate) | (z & alg.neg(gate))
                want = z if x == y else x
                if value != want:
                    return False
    return True


# ---------------------------------------------------------------------------
# atom structures


def _involutions(points: tuple[int, ...]) -> list[dict[int, int]]:
    if not points:
        return [{}]
    first, rest = points[0], points[1:]
    out = []
    for sub in _involutions(rest):
        fixed = dict(sub)
        fixed[first] = first
        out.append(fixed)
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for sub in _involutions(remaining):
            paired = dict(sub)
            paired[first] = partner
            paired[partner] = first
            out.append(paired)
    return out


def _forced_cycles(k: int, conv: tuple[int, ...]) -> frozenset[tuple[int, int, int]]:
    """Identity-atom behaviour: e*a = a = a*e, and e below a*b iff b = a-conv."""
    cycles = set()
    for a in range(k):
        cycles.add((0, a, a))
        cycles.add((a, 0, a))
        if a != 0:
            cycles.add((a, conv[a], 0))
    return frozenset(cycles)


def _orbit(triple: tuple[int, int, int], conv: tuple[int, ...]) -> frozenset:
    out = set()
    pending = {triple}
    while pending:
        t = pending.pop()
        if t in out:
            continue
        out.add(t)
        for transform in relalg.PEIRCE_TRANSFORMS:
            pending.add(transform(*t, conv))
    return frozenset(out)


def _canonical_structure(structure: AtomStructure) -> str:
    """Least serialized form over all permutations of the non-identity atoms."""
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


_CONSTRAINT_NAMES = {
    "sym": "symmetric",
    "refl": "reflexive",
    "subadd": "subadditive",
    "sa": "semiassociative",
    "assoc": "associative",
}


def _passes(report: relalg.AxiomReport, constraints: tuple[str, ...]) -> bool:
    for name in constraints:
        attr = _CONSTRAINT_NAMES.get(name, name)
        if not getattr(report, attr):
            return False
    return True


def enumerate_atom_structures(
    k: int, constraints: tuple[str, ...] = (), jobs: int = 1
) -> tuple[SearchReport, list[AtomStructure]]:
    """All triangle-closed atom structures with one identity atom, filtered by
    the requested axiom subset, up to isomorphism."""
    if k < 1 or k > MAX_STRUCTURE_ATOMS:
        raise CapacityError(
            f"structure enumeration supports 1 <= k <= {MAX_STRUCTURE_ATOMS}"
        )
    start = time.perf_counter()
    diversity = tuple(range(1, k))
    symmetric = "sym" in constraints or "symmetric" in constraints
    conv_choices = (
        [{a: a for a in diversity}] if symmetric else _involutions(diversity)
    )
    raw = 0
    found: dict[str, AtomStructure] = {}
    for conv_map in conv_choices:
        conv = tuple([0] + [conv_map[a] for a in diversity]) if k > 1 else (0,)
        forced = _forced_cycles(k, conv)
        orbits = []
        seen = set()
        for triple in itertools.product(diversity, repeat=3):
            if triple in seen:
                continue
            orbit = _orbit(triple, conv)
            seen |= orbit
            orbits.append(orbit)
        for mask in range(1 << len(orbits)):
            cycles = set(forced)
            for i, orbit in enumerate(orbits):
                if mask >> i & 1:
                    cycles |= orbit
            raw += 1
            structure = AtomStructure(k, conv, frozenset({0}), frozenset(cycles))
            alg = relalg.expand(structure)
            report = relalg.check_axioms(alg, structure)
            if not _passes(report, constraints):
                continue
            key = _canonical_structure(structure)
            if key not in found:
                found[key] = structure
    keys = sorted(found)
    elapsed = (time.perf_counter() - start) * 1000
    report = SearchReport(
        "structures", k, tuple(constraints), raw, len(keys), tuple(keys), elapsed
    )
    return report, [found[key] for key in keys]
