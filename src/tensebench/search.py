"""Exhaustive desk-scale enumeration: total frames up to isomorphism, their
complex algebras and minimality classification, and small relation-type atom
structures.

Canonical labeling is by the lexicographically least adjacency matrix (or
serialized structure) over all vertex/atom permutations.  Both searches
label each isomorphism orbit once: a code's (or orbit mask's) images under
every permutation are marked visited, so the other members of its orbit are
skipped (the simplest case of McKay's isomorph-free generation,
J. Algorithms 26, 1998).  Each permutation's images are read from two
tables built per call, one for the low half of a code's digits (or a mask's
bits) and one for the high half, so an image is the sum of two entries, and
the walk finds the next unvisited code or mask with ``bytearray.find``.
The structure search runs the axiom suite only on the least mask of each
orbit, and decides there only the laws its filter reads.  A structure's
canonical key is its greatest image cycle mask, read from tables built once
per work item, and only that mask is decoded into the printed key.  The
representatives are found once and then split across workers, whose
results are merged by canonical key in enumeration order, so reports are
identical across worker counts.  The frame search is one work item.
"""

from __future__ import annotations

import functools
import itertools
import time
from array import array
from dataclasses import dataclass, field

from . import relalg
from .frames import (
    CapacityError, Frame, VertexId, complex_f, complex_g, generated_partition, iter_bits,
)
from .parallel import parallel_map
from .relalg import AtomStructure

MAX_FRAME_SIZE = 5
MAX_STRUCTURE_ATOMS = 4
SUBALGEBRA_CAP = 10  # atoms, so at most 1024 elements


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


def _sums(contribs: list[tuple[int, ...]]) -> list[int]:
    """The summed contribution of every digit string: entry
    sum(d_i * base**i) holds sum(contribs[i][d_i]), base = len(contribs[i])."""
    table = [0]
    for choices in contribs:
        table = [t + c for c in choices for t in table]
    return table


def _code_maps(k: int) -> list[tuple[list[tuple[int, ...]], list[tuple[int, ...]]]]:
    """For each vertex permutation, each vertex pair's contribution to the
    image's code and to its matrix bits, one entry per choice of the pair.

    A code has one base-3 digit per pair i < j: 0 for i->j, 1 for j->i, 2 for
    both.  Matrix bit i*k + j is the edge i->j; the loops are left out here.
    Distinct pairs set distinct bits, so the bit contributions add.
    """
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    slot = {pair: p for p, pair in enumerate(pairs)}
    maps = []
    for perm in itertools.permutations(range(k)):
        codes, bits = [], []
        for (i, j) in pairs:
            # the edges i->j and j->i of the code become a->b and b->a
            a, b = perm[i], perm[j]
            lo, hi = min(a, b), max(a, b)
            weight = 3 ** slot[(lo, hi)]
            up, down = 1 << (lo * k + hi), 1 << (hi * k + lo)
            if a < b:
                codes.append((0, weight, 2 * weight))
                bits.append((up, down, up | down))
            else:
                codes.append((weight, 0, 2 * weight))
                bits.append((down, up, up | down))
        maps.append((codes, bits))
    return maps


def _frame_from_bits(vertices: tuple[VertexId, ...], bits: int) -> Frame:
    """Matrix row i is vertex i's successor mask."""
    k = len(vertices)
    row = (1 << k) - 1
    return Frame.from_masks(vertices, tuple(bits >> (i * k) & row for i in range(k)))


def enumerate_total_frames(k: int) -> tuple[SearchReport, list[Frame]]:
    """One representative per isomorphism class of total relations on k points.

    Each orbit of the codes is labeled once, by its least adjacency matrix
    over all relabelings.  Total frames are closed under relabeling, so every
    image of a code is a code of the space, and all of an orbit's codes are
    marked visited when its first code is met.  A relabeling's image code and
    matrix bits are each the sum of one table entry for the code's low digits
    and one for its high digits.
    """
    if k < 1 or k > MAX_FRAME_SIZE:
        raise CapacityError(f"total-frame enumeration supports 1 <= k <= {MAX_FRAME_SIZE}")
    start = time.perf_counter()
    pair_count = k * (k - 1) // 2
    half = pair_count // 2
    loops = sum(1 << (i * k + i) for i in range(k))
    code_tables, bit_tables = [], []
    for codes, bits in _code_maps(k):
        code_tables.append((array("I", _sums(codes[:half])), array("I", _sums(codes[half:]))))
        bit_tables.append((array("I", _sums(bits[:half])), array("I", _sums(bits[half:]))))
    low = 3 ** half
    visited = bytearray(3 ** pair_count)
    found = set()
    code = 0
    while code != -1:
        hi, lo = divmod(code, low)
        for lo_codes, hi_codes in code_tables:
            visited[lo_codes[lo] + hi_codes[hi]] = 1
        found.add(loops | min([lo_bits[lo] | hi_bits[hi] for lo_bits, hi_bits in bit_tables]))
        code = visited.find(0, code + 1)
    keys = sorted(found)
    vertices = tuple(VertexId(0, i + 1) for i in range(k))
    frames = [_frame_from_bits(vertices, bits) for bits in keys]
    elapsed = (time.perf_counter() - start) * 1000
    report = SearchReport(
        "frames", k, (), len(visited), len(keys),
        tuple(f"matrix={bits:0{k * k}b}" for bits in keys), elapsed,
    )
    return report, frames


# ---------------------------------------------------------------------------
# minimality classification


@dataclass(frozen=True)
class Classification:
    kind: str  # "TrivialSize2" | "MinimalCoverCandidate" | "NotMinimal"
    witness: int | None = None  # element generating a proper subalgebra

    def __str__(self) -> str:
        if self.kind == "NotMinimal":
            return f"NotMinimal(witness={self.witness})"
        return self.kind


def classify_minimal(frame: Frame) -> Classification:
    """Whether every element outside {0, 1} of the frame's complex algebra
    generates the whole algebra, that is, whether the partition it
    generates is every atom on its own.

    This is a finite heuristic filter for cover candidates, not a
    theorem-level certificate.
    """
    n = len(frame)
    if n == 0:
        raise ValueError("frame must be nonempty")
    if n > SUBALGEBRA_CAP:
        raise CapacityError(f"{n} atoms exceeds the {SUBALGEBRA_CAP}-atom cap")
    if n == 1:
        return Classification("TrivialSize2")
    one = (1 << n) - 1
    operators = (functools.partial(complex_f, frame), functools.partial(complex_g, frame))
    for x in range(1, one):
        if len(generated_partition((x,), one, operators)) < n:
            return Classification("NotMinimal", x)
    return Classification("MinimalCoverCandidate")


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
    """The triples that the six Peirce transforms reach from ``triple``; they
    form a group, so one step reaches all of them."""
    return frozenset(transform(*triple, conv) for transform in relalg.PEIRCE_TRANSFORMS)


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


def _representatives(orbits: list[frozenset], maps: list[tuple[int, ...]]) -> list[int]:
    """The least mask of each orbit of the relabelings, in ascending order.

    Masks are walked in ascending order, so an unvisited mask is the least of
    its orbit; all of its images are then marked visited.  A relabeling sends
    distinct bits to distinct bits, so a mask's image is the sum of one table
    entry for its low bits and one for its high bits.
    """
    half = len(orbits) // 2
    tables = []
    for bit_map in maps:
        contribs = [(0, 1 << bit) for bit in bit_map]
        tables.append((array("I", _sums(contribs[:half])), array("I", _sums(contribs[half:]))))
    low = (1 << half) - 1
    visited = bytearray(1 << len(orbits))
    reps = []
    mask = 0
    while mask != -1:
        reps.append(mask)
        lo, hi = mask & low, mask >> half
        for lo_images, hi_images in tables:
            visited[lo_images[lo] + hi_images[hi]] = 1
        mask = visited.find(0, mask + 1)
    return reps


def _canonical_keys(k: int, conv: tuple[int, ...], orbits: list[frozenset]):
    """The canonical key of each orbit mask of ``conv``, read from tables.

    A structure's key is its least (converse, sorted cycle list) over every
    relabeling of the diversity atoms, printed as ``conv=... cycles=...``.
    Only the relabelings whose converse image is least reach it, so only
    those are kept, each as an image table over triple codes
    (a*k + b)*k + c.  Triple t is bit k^3 - 1 - t of a cycle mask, and all
    images of one cycle set have the same size, so the image with the
    greatest mask has the least sorted cycle list.  A structure is the
    forced cycles and the orbits of its mask, so a relabeling's image of it
    is the image of the forced cycles plus one table entry for the low half
    of the orbit bits and one for the high half.  Only the greatest image
    is decoded.
    """
    top = k ** 3 - 1
    triples = list(itertools.product(range(k), repeat=3))
    least, images = None, []
    for rest in itertools.permutations(range(1, k)):
        perm = (0,) + rest
        image_conv = [0] * k
        for a in range(k):
            image_conv[perm[a]] = perm[conv[a]]
        image_conv = tuple(image_conv)
        if least is None or image_conv < least:
            least, images = image_conv, []
        if image_conv == least:
            images.append(tuple((perm[a] * k + perm[b]) * k + perm[c] for a, b, c in triples))

    def bits(cycles, image) -> int:
        return sum(1 << (top - image[(a * k + b) * k + c]) for a, b, c in cycles)

    forced = _forced_cycles(k, conv)
    half = len(orbits) // 2
    tables = []
    for image in images:
        contribs = [(0, bits(orbit, image)) for orbit in orbits]
        tables.append((bits(forced, image), _sums(contribs[:half]), _sums(contribs[half:])))
    low = (1 << half) - 1
    conv_text = "conv=" + ",".join(map(str, least))

    def key(mask: int) -> str:
        lo, hi = mask & low, mask >> half
        best = max(fixed + lo_images[lo] + hi_images[hi] for fixed, lo_images, hi_images in tables)
        codes = [top - bit for bit in iter_bits(best)]
        cycles = ";".join(f"{t // (k * k)}.{t // k % k}.{t % k}" for t in reversed(codes))
        return f"{conv_text} cycles={cycles}"

    return key


def _structure_chunk(args) -> dict[str, AtomStructure]:
    """Check the structures of one converse with the given orbit masks;
    returns, in mask order, the first passing structure of each canonical key.

    Only the laws of the filter are decided.  The triangle laws are not: a
    structure here is the forced cycles and whole Peirce orbits, so its
    cycle set is closed under the Peirce transforms by construction."""
    k, conv, orbits, masks, fields = args
    forced = _forced_cycles(k, conv)
    key_of = _canonical_keys(k, conv, orbits)
    found: dict[str, AtomStructure] = {}
    for mask in masks:
        cycles = set(forced)
        for i in iter_bits(mask):
            cycles |= orbits[i]
        structure = AtomStructure(k, conv, frozenset({0}), frozenset(cycles))
        report = relalg.check_axioms(relalg.expand(structure), fields)
        if not all(getattr(report, name) for name in fields):
            continue
        found.setdefault(key_of(mask), structure)
    return found


def enumerate_atom_structures(
    k: int, constraints: tuple[str, ...] = (), jobs: int = 1
) -> tuple[SearchReport, list[AtomStructure]]:
    """All triangle-closed atom structures with one identity atom, filtered by
    the requested axiom subset, up to isomorphism.

    Every structure is the forced cycles and a union of Peirce orbits, so it
    is triangle-closed by construction, and only the laws of the filter are
    decided.  Every axiom the filter reads is invariant under relabeling the
    atoms, so only the least mask of each orbit is checked.  Within one
    converse, the structures with one canonical key form one such orbit, so
    its least mask is the structure that checking every mask in order would
    keep first.  The key is read from `_canonical_keys`' tables.
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
