"""Finite frames (directed graphs), truncations of the layered frames, and
their complex algebras.

A finite tense algebra is the complex algebra of a ``Frame``: its elements
are vertex masks (bit i for the vertex of ordinal i), its unit is the mask
of every vertex, and its operators are ``complex_f`` and ``complex_g``.
That algebra is the ground-truth oracle for every symbolic computation in
this package: the image/preimage operators are read straight off the
adjacency relation, with no knowledge of the row/level structure the
symbolic engine exploits.

What some elements generate in a finite algebra of atom masks, tense or
relation-type, is found by one routine, ``generated_partition``: it returns
the atoms of the generated subalgebra as blocks of the algebra's atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .sparam import SParameter

DEFAULT_VERTEX_BUDGET = 4096


class CapacityError(Exception):
    """A requested construction exceeds the configured size budget."""


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a nonnegative mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(masks: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(masks)
    for i, mask in enumerate(masks):
        for j in iter_bits(mask):
            out[j] |= 1 << i
    return tuple(out)


@dataclass(frozen=True, order=True)
class VertexId:
    level: int
    index: int  # >= 1

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("vertex index must be >= 1")

    def __str__(self) -> str:
        return f"a_{self.level}_{self.index}"


@dataclass(frozen=True)
class TruncationSpec:
    """Finite window onto the infinite frame: levels in [level_lo, level_hi],
    indices in [1, index_max]."""

    level_lo: int
    level_hi: int
    index_max: int

    def __post_init__(self):
        if self.level_lo > self.level_hi:
            raise ValueError("empty level window")
        if self.index_max < 1:
            raise ValueError("index_max must be >= 1")

    @property
    def vertex_count(self) -> int:
        return (self.level_hi - self.level_lo + 1) * self.index_max

    def vertices(self) -> tuple[VertexId, ...]:
        return tuple(
            VertexId(p, m)
            for p in range(self.level_lo, self.level_hi + 1)
            for m in range(1, self.index_max + 1)
        )

    def contains(self, v: VertexId) -> bool:
        return self.level_lo <= v.level <= self.level_hi and 1 <= v.index <= self.index_max

    def shrink(self, depth: int) -> "TruncationSpec":
        """Interior window safe for comparing depth many image/preimage steps."""
        spec = TruncationSpec(
            self.level_lo + depth, self.level_hi - depth, self.index_max - depth
        )
        return spec


class Frame:
    """Immutable directed graph over an ordered vertex list.

    Adjacency is stored per vertex as a bit vector over the vertex ordinals;
    ``mask`` and ``unmask`` convert between vertices and such masks, which
    are what the complex operators take and return.  Vertex order is
    (level, index) ascending.
    """

    def __init__(self, vertices: Iterable[VertexId], edges: Iterable[tuple[VertexId, VertexId]]):
        vs = tuple(sorted(vertices))
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertices")
        self._vertices = vs
        self._ordinal = {v: i for i, v in enumerate(vs)}
        succ = [0] * len(vs)
        for src, dst in edges:
            if src not in self._ordinal or dst not in self._ordinal:
                raise ValueError(f"edge endpoint not a listed vertex: {src} -> {dst}")
            succ[self._ordinal[src]] |= 1 << self._ordinal[dst]
        self._succ = tuple(succ)
        self._pred = _transpose(self._succ)

    @classmethod
    def from_masks(
        cls,
        vertices: tuple[VertexId, ...],
        succ: tuple[int, ...],
        pred: tuple[int, ...] | None = None,
    ) -> "Frame":
        """Internal fast path; vertices must already be in canonical order."""
        frame = cls.__new__(cls)
        frame._vertices = vertices
        frame._ordinal = {v: i for i, v in enumerate(vertices)}
        frame._succ = succ
        frame._pred = _transpose(succ) if pred is None else pred
        return frame

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def ordinal(self, v: VertexId) -> int:
        return self._ordinal[v]

    def has_edge(self, src: VertexId, dst: VertexId) -> bool:
        return bool(self._succ[self._ordinal[src]] >> self._ordinal[dst] & 1)

    def edges(self) -> tuple[tuple[VertexId, VertexId], ...]:
        out = []
        for i, v in enumerate(self._vertices):
            for w in self.unmask(self._succ[i]):
                out.append((v, w))
        return tuple(out)

    def mask(self, xs: Iterable[VertexId]) -> int:
        """The vertices ``xs`` as a mask over the ordinals."""
        mask = 0
        for v in xs:
            mask |= 1 << self._ordinal[v]
        return mask

    def unmask(self, mask: int) -> tuple[VertexId, ...]:
        """The vertices of a mask, in canonical order."""
        return tuple(self._vertices[i] for i in iter_bits(mask))


def edge_present(s: SParameter, src: VertexId, dst: VertexId) -> bool:
    """The layered frame's edge relation: (a_{p,m}, a_{q,n}) is an edge iff
    p > q, or p = q and m >= n, or p = q and n = m+1, or q = p+1 and m = 1
    and n is in the pattern."""
    p, m = src.level, src.index
    q, n = dst.level, dst.index
    if p > q or (p == q and m >= n):
        return True
    if p == q and n == m + 1:
        return True
    return q == p + 1 and m == 1 and s.in_pattern(n)


def build_truncation(
    spec: TruncationSpec, s: SParameter, budget: int = DEFAULT_VERTEX_BUDGET
) -> Frame:
    """The window's portion of the layered frame for parameter ``s``.

    Adjacency masks are assembled row-block-wise from the same three edge
    clauses that ``edge_present`` states pointwise (the rows-below part is a
    prefix of the canonical ordinal order, the within-row part contiguous).
    """
    if spec.vertex_count > budget:
        raise CapacityError(
            f"window has {spec.vertex_count} vertices, budget is {budget}"
        )
    vs = spec.vertices()
    width = spec.index_max
    levels = spec.level_hi - spec.level_lo + 1
    total = levels * width
    full = (1 << total) - 1
    pattern_bits = s.pattern_mask(width + 1) >> 1  # bit n - 1 for pattern index n <= width
    succ = []
    pred = []
    for row in range(levels):
        base = row * width
        rows_below = (1 << base) - 1
        rows_above = full ^ ((1 << (base + width)) - 1)
        for m in range(1, width + 1):
            mask = rows_below | (((1 << m) - 1) << base)
            if m < width:
                mask |= 1 << (base + m)
            if m == 1 and row + 1 < levels:
                mask |= pattern_bits << (base + width)
            succ.append(mask)
            back = rows_above | (((1 << (width - max(m - 1, 1) + 1)) - 1) << (base + max(m - 1, 1) - 1))
            if s.in_pattern(m) and row > 0:
                back |= 1 << (base - width)
            pred.append(back)
    return Frame.from_masks(vs, tuple(succ), tuple(pred))


def is_reflexive(frame: Frame) -> bool:
    return all(frame.has_edge(v, v) for v in frame.vertices)


def is_total(frame: Frame) -> bool:
    """Every ordered pair related in at least one direction (hence reflexive)."""
    full = (1 << len(frame)) - 1
    return all(frame._succ[i] | frame._pred[i] == full for i in range(len(frame)))


def _gather(adjacency: tuple[int, ...], mask: int) -> int:
    """The union of the adjacency masks of the vertices in ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= adjacency[low.bit_length() - 1]
        mask ^= low
    return out


def generated_partition(seeds: Iterable[int], one: int, unary: tuple = (),
                        binary: tuple = ()) -> list[int]:
    """The atoms of the subalgebra that ``seeds`` generate in the powerset of
    the atoms of ``one``, under the ``unary`` and the ``binary`` operations,
    as a sorted list of nonempty block masks.

    Every block is split by each seed, then by the image of every block under
    each unary operation and of every ordered pair of blocks under each
    binary one, until a pass splits nothing or every block is one atom.  The
    operations are additive and send 0 to 0, so an image of a union of blocks
    is the union of the blocks' images, and the blocks left are exactly the
    atoms of the generated subalgebra."""
    blocks = _split([one] if one else [], seeds)
    while len(blocks) < one.bit_count():
        images = [op(x) for op in unary for x in blocks]
        images += [op(x, y) for op in binary for x in blocks for y in blocks]
        refined = _split(blocks, images)
        if len(refined) == len(blocks):
            break
        blocks = refined
    return sorted(blocks)


def _split(blocks: list[int], cuts: Iterable[int]) -> list[int]:
    """The nonempty parts of the blocks inside and outside each cut."""
    for cut in cuts:
        blocks = [part for block in blocks for part in (block & cut, block & ~cut) if part]
    return blocks


def complex_f(frame: Frame, mask: int) -> int:
    """All successors of the vertices in ``mask`` (the image operator)."""
    return _gather(frame._succ, mask)


def complex_g(frame: Frame, mask: int) -> int:
    """All predecessors of the vertices in ``mask`` (the preimage operator)."""
    return _gather(frame._pred, mask)


def export_dot(frame: Frame, suppress_loops: bool = False) -> str:
    """Deterministic DOT text; nodes named a_<level>_<index> in canonical order."""
    lines = ["digraph frame {"]
    for v in frame.vertices:
        lines.append(f'  "{v}";')
    for src, dst in frame.edges():
        if suppress_loops and src == dst:
            continue
        lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def frame_to_text(frame: Frame) -> str:
    """Line-oriented frame file: header, vertices in canonical order, sorted edges."""
    lines = [f"frame {len(frame)}"]
    for v in frame.vertices:
        lines.append(f"v {v.level} {v.index}")
    pairs = sorted((frame.ordinal(a), frame.ordinal(b)) for a, b in frame.edges())
    for a, b in pairs:
        lines.append(f"e {a} {b}")
    return "\n".join(lines) + "\n"


def parse_frame(text: str) -> Frame:
    """Parse the frame file format; rejects duplicates and non-canonical order."""
    lines = [line for line in text.splitlines() if line.strip()]
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != "frame":
        raise ValueError("missing 'frame <count>' header")
    count = int(header[1])
    vertices: list[VertexId] = []
    edges: list[tuple[int, int]] = []
    for line in lines[1:]:
        fields = line.split()
        if fields[0] == "v" and len(fields) == 3:
            if edges:
                raise ValueError("vertex line after edge lines")
            vertices.append(VertexId(int(fields[1]), int(fields[2])))
        elif fields[0] == "e" and len(fields) == 3:
            edges.append((int(fields[1]), int(fields[2])))
        else:
            raise ValueError(f"unrecognized line: {line!r}")
    if len(vertices) != count:
        raise ValueError(f"header says {count} vertices, found {len(vertices)}")
    if sorted(vertices) != vertices or len(set(vertices)) != len(vertices):
        raise ValueError("vertices must be unique and in canonical order")
    if sorted(edges) != edges or len(set(edges)) != len(edges):
        raise ValueError("edges must be unique and sorted")
    for a, b in edges:
        if not (0 <= a < count and 0 <= b < count):
            raise ValueError(f"edge ordinal out of range: {a} {b}")
    pairs = [(vertices[a], vertices[b]) for a, b in edges]
    return Frame(vertices, pairs)
