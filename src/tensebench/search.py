"""Exhaustive desk-scale enumeration: total frames up to isomorphism, their
complex algebras and minimality classification, and small relation-type atom
structures.

Canonical labeling is by the lexicographically least adjacency matrix (or
serialized structure) over all vertex/atom permutations.  Both searches
label each isomorphism orbit once: a code's (or orbit mask's) images under
every permutation are marked visited, so the other members of its orbit are
skipped (the simplest case of McKay's isomorph-free generation,
J. Algorithms 26, 1998).  The structure search runs the axiom suite only on
the least mask of each orbit; its representatives are found once and then
split across workers, whose results are merged by canonical key in
enumeration order, so reports are identical across worker counts.  The
frame search is one work item: its orbits are labeled in one pass over the
codes with one visited array.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from . import relalg
from .frames import CapacityError, Frame, FiniteTenseAlgebra, VertexId, iter_bits
from .parallel import parallel_map
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


def _code_maps(k: int) -> list[tuple[tuple[tuple[int, int], ...], ...]]:
    """For each vertex permutation and each vertex pair, the contribution of
    the pair's three choices to the image's (code, matrix bits).

    A code has one base-3 digit per pair i < j: 0 for i->j, 1 for j->i, 2 for
    both.  Matrix bit i*k + j is the edge i->j; the loops are left out here.
    """
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    slot = {pair: p for p, pair in enumerate(pairs)}
    maps = []
    for perm in itertools.permutations(range(k)):
        per_pair = []
        for (i, j) in pairs:
            # the edges i->j and j->i of the code become a->b and b->a
            a, b = perm[i], perm[j]
            lo, hi = min(a, b), max(a, b)
            weight = 3 ** slot[(lo, hi)]
            up, down = 1 << (lo * k + hi), 1 << (hi * k + lo)
            if a < b:
                choices = ((0, up), (weight, down), (2 * weight, up | down))
            else:
                choices = ((weight, down), (0, up), (2 * weight, up | down))
            per_pair.append(choices)
        maps.append(tuple(per_pair))
    return maps


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


def enumerate_total_frames(k: int) -> tuple[SearchReport, list[Frame]]:
    """One representative per isomorphism class of total relations on k points.

    Each orbit of the codes is labeled once, by its least adjacency matrix
    over all relabelings.  Total frames are closed under relabeling, so every
    image of a code is a code of the space, and all of an orbit's codes are
    marked visited when its first code is met.
    """
    if k < 1 or k > MAX_FRAME_SIZE:
        raise CapacityError(f"total-frame enumeration supports 1 <= k <= {MAX_FRAME_SIZE}")
    start = time.perf_counter()
    pair_count = k * (k - 1) // 2
    loops = sum(1 << (i * k + i) for i in range(k))
    maps = _code_maps(k)
    visited = bytearray(3 ** pair_count)
    found = set()
    for code in range(len(visited)):
        if visited[code]:
            continue
        digits = []
        rest = code
        for _ in range(pair_count):
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
    frames = [_frame_from_bits(k, bits) for bits in keys]
    elapsed = (time.perf_counter() - start) * 1000
    report = SearchReport(
        "frames", k, (), len(visited), len(keys),
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


def _constraint_fields(constraints: tuple[str, ...]) -> tuple[str, ...]:
    """The `AxiomReport` field of each constraint, named short or long."""
    fields = []
    for name in constraints:
        if name in _CONSTRAINT_NAMES:
            fields.append(_CONSTRAINT_NAMES[name])
        elif name in _CONSTRAINT_NAMES.values():
            fields.append(name)
        else:
            known = ",".join(_CONSTRAINT_NAMES)
            raise ValueError(f"unknown constraint {name!r} (expected some of {known})")
    return tuple(fields)


def _triple_orbits(k: int, conv: tuple[int, ...]) -> list[frozenset]:
    """The Peirce orbits of the diversity triples; bit i of an orbit mask
    selects `orbits[i]`."""
    orbits = []
    seen = set()
    for triple in itertools.product(range(1, k), repeat=3):
        if triple not in seen:
            orbit = _orbit(triple, conv)
            seen |= orbit
            orbits.append(orbit)
    return orbits


def _bit_maps(k: int, conv: tuple[int, ...], orbits: list[frozenset]) -> list[tuple[int, ...]]:
    """For each relabeling of the diversity atoms that commutes with the
    converse, the orbit-mask bit that each bit is sent to.

    Such a relabeling maps the forced cycles onto themselves and each Peirce
    orbit onto a Peirce orbit, so it acts on the orbit masks of `conv`.
    """
    index = {triple: i for i, orbit in enumerate(orbits) for triple in orbit}
    maps = []
    for rest in itertools.permutations(range(1, k)):
        perm = (0,) + rest
        if all(perm[conv[a]] == conv[perm[a]] for a in range(k)):
            maps.append(tuple(
                index[tuple(perm[x] for x in min(orbit))] for orbit in orbits
            ))
    return maps


def _mask_image(mask: int, bit_map: tuple[int, ...]) -> int:
    image = 0
    for i in iter_bits(mask):
        image |= 1 << bit_map[i]
    return image


def _representatives(orbits: list[frozenset], maps: list[tuple[int, ...]]) -> list[int]:
    """The least mask of each orbit of the relabelings, in ascending order.

    Masks are walked in ascending order, so an unvisited mask is the least of
    its orbit; all of its images are then marked visited.
    """
    visited = bytearray(1 << len(orbits))
    reps = []
    for mask in range(len(visited)):
        if not visited[mask]:
            reps.append(mask)
            for bit_map in maps:
                visited[_mask_image(mask, bit_map)] = 1
    return reps


def _structure_chunk(args) -> dict[str, AtomStructure]:
    """Check the structures of one converse with the given orbit masks;
    returns, in mask order, the first passing structure of each canonical key."""
    k, conv, orbits, masks, fields = args
    forced = _forced_cycles(k, conv)
    found: dict[str, AtomStructure] = {}
    for mask in masks:
        cycles = set(forced)
        for i in iter_bits(mask):
            cycles |= orbits[i]
        structure = AtomStructure(k, conv, frozenset({0}), frozenset(cycles))
        report = relalg.check_axioms(relalg.expand(structure), structure)
        if not all(getattr(report, name) for name in fields):
            continue
        found.setdefault(_canonical_structure(structure), structure)
    return found


def enumerate_atom_structures(
    k: int, constraints: tuple[str, ...] = (), jobs: int = 1
) -> tuple[SearchReport, list[AtomStructure]]:
    """All triangle-closed atom structures with one identity atom, filtered by
    the requested axiom subset, up to isomorphism.

    Every axiom the filter reads is invariant under relabeling the atoms, so
    only the least mask of each orbit is checked.  Within one converse, the
    structures with one canonical key form one such orbit, so its least mask
    is the structure that checking every mask in order would keep first.
    """
    if k < 1 or k > MAX_STRUCTURE_ATOMS:
        raise CapacityError(
            f"structure enumeration supports 1 <= k <= {MAX_STRUCTURE_ATOMS}"
        )
    fields = _constraint_fields(constraints)
    start = time.perf_counter()
    diversity = tuple(range(1, k))
    conv_choices = (
        [{a: a for a in diversity}] if "symmetric" in fields else _involutions(diversity)
    )
    raw = 0
    items = []
    for conv_map in conv_choices:
        conv = tuple([0] + [conv_map[a] for a in diversity])
        orbits = _triple_orbits(k, conv)
        raw += 1 << len(orbits)
        reps = _representatives(orbits, _bit_maps(k, conv, orbits))
        chunk = -(-len(reps) // max(jobs, 1))
        items += [(k, conv, orbits, reps[lo:lo + chunk], fields)
                  for lo in range(0, len(reps), chunk)]
    found: dict[str, AtomStructure] = {}
    for chunk_found in parallel_map(_structure_chunk, items, jobs):
        for key, structure in chunk_found.items():
            found.setdefault(key, structure)
    keys = sorted(found)
    elapsed = (time.perf_counter() - start) * 1000
    report = SearchReport(
        "structures", k, tuple(constraints), raw, len(keys), tuple(keys), elapsed
    )
    return report, [found[key] for key in keys]
