"""Exact canonical representation of the generated subalgebra's elements.

Every element is a finite union of basis sets: singletons A(p,m), row
pattern tails S(p,m), row off-pattern tails Sbar(p,m), full rows V(p),
down-sets D(p) and up-sets U(p).  A ``SymbolicSet`` stores the element as a
canonical function from levels to canonical row descriptions, with constant
behaviour (empty or full) outside a finite level window.  All Boolean
operations, the image/preimage operators, cardinality, and level extrema
are computed exactly; equality is structural equality of canonical forms.

Two independent implementations of the operators are provided:
``apply_f``/``apply_g`` derive the result from the three edge rules of the
frame, level by level; ``apply_f_table``/``apply_g_table`` decompose the
argument into basis sets and apply a per-kind clause table.  The audit
module compares both against the finite truncation oracle.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import NamedTuple

from .frames import TruncationSpec, VertexId, iter_bits
from .sparam import SParameter

# ---------------------------------------------------------------------------
# rows


class Row(NamedTuple):
    """One level's index set, as two sign-extended ints (bit n for index n).

    ``on`` holds the row's pattern indices and ``off`` its off-pattern ones.
    Every bit of an int outside its own index class, bit 0 included, equals
    the int's sign, so a class's part is finite when its int is not negative
    and cofinite when it is.  When the parameter's off-pattern class is
    finite (all-in tail), ``off`` takes the sign of ``on``, so that the empty
    and the full row are the same two rows for every parameter.  Equal sets
    then have equal ints, and union, meet and complement of rows are ``|``,
    ``&`` and ``~`` on both ints.

    A NamedTuple, not a dataclass, so that hashing and equality run in C:
    every operator memo key hashes the rows of its sets, and the row
    operations compare rows on every call.  The hot paths build rows with
    ``_new(Row, fields)``, which skips the NamedTuple's Python ``__new__``.
    """

    on: int
    off: int


# tuple.__new__ builds a Row or SymbolicSet from its field tuple in C
_new = tuple.__new__

EMPTY_ROW = Row(0, 0)
FULL_ROW = Row(-1, -1)
INDEX_ONE_ROW = Row(0, 0b10)  # just index 1, off-pattern for any parameter


def make_row(s: SParameter, members: int, base: int, pat_tail: bool, off_tail: bool) -> Row:
    """The row of a loose description: the indices set in the mask
    ``members`` (bit n for index n >= 1, bits at or above ``base`` allowed)
    plus, from ``base`` on, every pattern index (if ``pat_tail``) and every
    off-pattern index (if ``off_tail``).

    Below k each int takes its class's bits from the description and the
    other bits from its sign; from k on every index of a class is in the
    row exactly when its tail is, as k lies past ``base``, every member and,
    under an all-in tail, the whole off-pattern class."""
    if base < 1:
        base = 1
    k = max(base, members.bit_length(), s.stable_from if s.tail_in else 0)
    pat = s.pattern_mask(k)
    off_class = ((1 << k) - 2) ^ pat
    tail = -(1 << base)
    on = members | tail | ~pat if pat_tail else members & pat
    off_members = members | tail if off_tail else members
    off_sign = pat_tail if s.tail_in else off_tail
    off = off_members | ~off_class if off_sign else off_members & off_class
    return _new(Row, (on, off))


def row_contains(s: SParameter, r: Row, n: int) -> bool:
    if n < 1:
        return False
    return bool((r.on if s.in_pattern(n) else r.off) >> n & 1)


def _row_start(r: Row) -> int:
    """The least index from which each int of the row equals its sign."""
    on, off = r
    return ((on ^ -(on < 0)) | (off ^ -(off < 0))).bit_length() or 1


def _row_bits(r: Row, pat: int, k: int) -> int:
    """The members of r below k, as a mask, given the pattern mask below k.

    ``pat`` is read only for a row whose ints differ in sign: the members
    are ``on | off`` when both ints are finite parts and ``on & off`` when
    both are cofinite, so callers may pass 0 for any other row."""
    on, off = r
    if (on ^ off) < 0:
        members = on & pat | off & ~pat
    else:
        members = on | off if on >= 0 else on & off
    return members & ((1 << k) - 2)


def row_union(s, a, b):
    # _binary pads with EMPTY_ROW and FULL_ROW, so the identities return an
    # operand without building a row
    if a == b or b == EMPTY_ROW or a == FULL_ROW:
        return a
    if a == EMPTY_ROW or b == FULL_ROW:
        return b
    return _new(Row, (a[0] | b[0], a[1] | b[1]))


def row_intersect(s, a, b):
    if a == b or b == FULL_ROW or a == EMPTY_ROW:
        return a
    if a == FULL_ROW or b == EMPTY_ROW:
        return b
    return _new(Row, (a[0] & b[0], a[1] & b[1]))


def row_complement(s: SParameter, r: Row) -> Row:
    return _new(Row, (~r[0], ~r[1]))


def row_count(r: Row) -> int | None:
    """Number of members, or None when infinite."""
    members = r.on | r.off
    return None if members < 0 else members.bit_count()


def row_min(s: SParameter, r: Row) -> int | None:
    on, off = r
    if (on ^ off) < 0:
        # from stable_from on, each class that has a tail there holds one of
        # any two consecutive indices, so the least member lies below k
        k = max(_row_start(r), s.stable_from) + 2
        members = _row_bits(r, s.pattern_mask(k), k)
    else:
        members = on | off if on >= 0 else on & off & -2
    return (members & -members).bit_length() - 1 if members else None


def row_meets_pattern(s: SParameter, r: Row) -> bool:
    """Whether the row contains some pattern index."""
    return r.on != 0


def tail_row(s: SParameter, start: int) -> Row:
    """All indices >= start."""
    return make_row(s, 0, start, True, True)


# ---------------------------------------------------------------------------
# symbolic sets


class SymbolicSet(NamedTuple):
    """Canonical element of the generated subalgebra for one parameter.

    Levels below ``anchor`` behave as ``below_full``; levels from
    ``anchor + len(rows)`` on behave as ``above_full``; ``rows`` give the
    levels in between.  Canonical form: boundary rows differ from the
    adjacent constant row, and a fully constant set has anchor 0.

    A NamedTuple, like ``Row``, so that comparing a set and hashing its
    rows run in C; the parameter returns a hash it computed once.
    """

    sparam: SParameter
    below_full: bool
    above_full: bool
    anchor: int
    rows: tuple[Row, ...]

    def row_at(self, level: int) -> Row:
        if level < self.anchor:
            return FULL_ROW if self.below_full else EMPTY_ROW
        if level >= self.anchor + len(self.rows):
            return FULL_ROW if self.above_full else EMPTY_ROW
        return self.rows[level - self.anchor]

    def __str__(self) -> str:
        return display(self)


def _make_set(
    s: SParameter, below_full: bool, above_full: bool, lo: int,
    rows: list[Row] | tuple[Row, ...],
) -> SymbolicSet:
    """The canonical set with the given constant behaviour and rows from
    level lo on: rows equal to the adjacent constant row are trimmed off."""
    below_row = FULL_ROW if below_full else EMPTY_ROW
    above_row = FULL_ROW if above_full else EMPTY_ROW
    first, end = 0, len(rows)
    while first < end and rows[first] == below_row:
        first += 1
    while first < end and rows[end - 1] == above_row:
        end -= 1
    if first == end and below_full == above_full:
        return _new(SymbolicSet, (s, below_full, above_full, 0, ()))
    return _new(SymbolicSet, (s, below_full, above_full, lo + first, tuple(rows[first:end])))


def empty_set(s: SParameter) -> SymbolicSet:
    return _new(SymbolicSet, (s, False, False, 0, ()))


def full_set(s: SParameter) -> SymbolicSet:
    return _new(SymbolicSet, (s, True, True, 0, ()))


def is_empty(x: SymbolicSet) -> bool:
    return not x.below_full and not x.above_full and not x.rows


def is_equal(x: SymbolicSet, y: SymbolicSet) -> bool:
    _check_same_param(x, y)
    return x == y


def _check_same_param(x: SymbolicSet, y: SymbolicSet):
    if x.sparam is not y.sparam and x.sparam != y.sparam:
        raise ValueError("operands built over different S-parameters")


# union, intersect, complement, apply_f and apply_g are memoized on their
# arguments: canonical forms make structural equality a sound key.  So are
# the basis rows (pattern_row, off_pattern_row) and the clause images
# (_clause_f, _clause_g), which take the parameter itself first, so every
# key holds its parameter and one table serves any number of them.  A key
# hashes its sets in C, as sets and rows are NamedTuples; a set's hash takes
# in its parameter's hash, which the parameter computes once.  Each table
# keeps its MEMO_CAP most recently used results, of whatever parameters.
# The cap was set by peak RSS (perfbench, 2-core Xeon, Python 3.11.7,
# alternating runs) over a memo that kept the latest parameter's results
# only: 1024 raised it by 9.9% on audit-family and 7.1% on separate, 512 by
# 4.0% and 2.6%, and 256 by about 1% on both, at the same throughput.

MEMO_CAP = 256
_memoized = functools.lru_cache(maxsize=MEMO_CAP)


def _binary(x: SymbolicSet, y: SymbolicSet, is_union: bool) -> SymbolicSet:
    s, x_below, x_above, x_anchor, x_rows = x
    if y.sparam is not s:
        _check_same_param(x, y)
    _, y_below, y_above, y_anchor, y_rows = y
    if is_union:
        below, above = x_below or y_below, x_above or y_above
        row_op = row_union
    else:
        below, above = x_below and y_below, x_above and y_above
        row_op = row_intersect
    # a set that is not constant has its own rows on [anchor, anchor + len(rows));
    # a constant one takes lo as its anchor, so its padding is one run of its row
    x_end, y_end = x_anchor + len(x_rows), y_anchor + len(y_rows)
    x_varies = x_rows or x_below != x_above
    y_varies = y_rows or y_below != y_above
    if x_varies and y_varies:
        lo, end = min(x_anchor, y_anchor), max(x_end, y_end)
    elif x_varies:
        lo, end = x_anchor, x_end
        y_anchor = y_end = lo
    elif y_varies:
        lo, end = y_anchor, y_end
        x_anchor = x_end = lo
    else:
        return _make_set(s, below, above, 0, ())
    # both operands' rows on the levels [lo, end), walked side by side
    x_rows = ((FULL_ROW if x_below else EMPTY_ROW,) * (x_anchor - lo) + x_rows
              + (FULL_ROW if x_above else EMPTY_ROW,) * (end - x_end))
    y_rows = ((FULL_ROW if y_below else EMPTY_ROW,) * (y_anchor - lo) + y_rows
              + (FULL_ROW if y_above else EMPTY_ROW,) * (end - y_end))
    rows = list(map(row_op, itertools.repeat(s), x_rows, y_rows))
    return _make_set(s, below, above, lo, rows)


@_memoized
def union(x: SymbolicSet, y: SymbolicSet) -> SymbolicSet:
    return _binary(x, y, True)


@_memoized
def intersect(x: SymbolicSet, y: SymbolicSet) -> SymbolicSet:
    return _binary(x, y, False)


@_memoized
def complement(x: SymbolicSet) -> SymbolicSet:
    # the complement of a canonical set is canonical: rows that differ from
    # the adjacent constant rows still do once all three are flipped
    s, below_full, above_full, anchor, rows = x
    return _new(SymbolicSet, (s, not below_full, not above_full, anchor,
                              tuple([row_complement(s, r) for r in rows])))


@_memoized
def pattern_row(s: SParameter, start: int = 1) -> Row:
    return make_row(s, 0, start, True, False)


@_memoized
def off_pattern_row(s: SParameter, start: int) -> Row:
    """Off-pattern indices >= max(start, 2); empty when a finite off-pattern
    class ends below them."""
    return make_row(s, 0, max(start, 2), False, True)


def union_all(s: SParameter, parts) -> SymbolicSet:
    out = empty_set(s)
    for part in parts:
        out = union(out, part)
    return out


def member(x: SymbolicSet, v: VertexId) -> bool:
    return row_contains(x.sparam, x.row_at(v.level), v.index)


# ---------------------------------------------------------------------------
# basis sets


@dataclass(frozen=True)
class BasisSet:
    """Named generator: kinds A, S, Sbar (indexed), V, D, U (level only)."""

    kind: str
    level: int
    index: int | None = None

    def __post_init__(self):
        if self.kind not in ("A", "S", "Sbar", "V", "D", "U"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        needs_index = self.kind in ("A", "S", "Sbar")
        if needs_index and (self.index is None or self.index < 1):
            raise ValueError(f"kind {self.kind} needs an index >= 1")
        if not needs_index and self.index is not None:
            raise ValueError(f"kind {self.kind} takes no index")

    def __str__(self) -> str:
        if self.index is None:
            return f"{self.kind}({self.level})"
        return f"{self.kind}({self.level},{self.index})"


def basis(s: SParameter, b: BasisSet) -> SymbolicSet:
    p, m = b.level, b.index
    if b.kind == "A":
        return basis_a(s, p, m)
    if b.kind == "S":
        return basis_srow(s, p, m)
    if b.kind == "Sbar":
        return basis_sbar(s, p, m)
    if b.kind == "V":
        return basis_vrow(s, p)
    if b.kind == "D":
        return basis_d(s, p)
    return basis_u(s, p)


# The helpers below take level p and index m >= 1 unchecked; ``basis``
# validates them through ``BasisSet``.


def basis_a(s, p, m):
    """A(p,m)."""
    row = Row(1 << m, 0) if s.in_pattern(m) else Row(0, 1 << m)
    return SymbolicSet(s, False, False, p, (row,))


def basis_srow(s, p, m):
    """S(p,m); never empty, as the pattern holds every even index."""
    return SymbolicSet(s, False, False, p, (pattern_row(s, m),))


def basis_sbar(s, p, m):
    row = off_pattern_row(s, m)
    if row == EMPTY_ROW:  # a finite off-pattern class may end below m
        return empty_set(s)
    return SymbolicSet(s, False, False, p, (row,))


def basis_vrow(s, p):
    return SymbolicSet(s, False, False, p, (FULL_ROW,))


def basis_d(s, p):
    return SymbolicSet(s, True, False, p + 1, ())


def basis_u(s, p):
    return SymbolicSet(s, False, True, p, ())


# ---------------------------------------------------------------------------
# image and preimage, rule-based

# The three edge rules induce, level by level:
#   image:    any nonempty level strictly above q fills level q; within a row
#             the image is the down-closure plus one successor step; a row's
#             index 1 contributes the pattern tail of the next level up.
#   preimage: any nonempty level strictly below q fills level q; within a row
#             the preimage is the up-closure from min-1; index 1 of the level
#             below sees a row iff the row meets the pattern.


def _f_row_image(s: SParameter, r: Row) -> Row:
    members = r.on | r.off
    if members < 0:
        return FULL_ROW
    if not members:
        return EMPTY_ROW
    # indices 1..t + 1 for the top member t
    end = members.bit_length() + 1
    pat = s.pattern_mask(end)
    return _new(Row, (pat, ((1 << end) - 2) ^ pat))


def _g_row_image(s: SParameter, r: Row) -> Row:
    if r == EMPTY_ROW:
        return EMPTY_ROW
    lo = max(1, row_min(s, r) - 1)
    return tail_row(s, lo)


@_memoized
def apply_f(x: SymbolicSet) -> SymbolicSet:
    s, below_full, above_full, anchor, rows = x
    if above_full:
        return full_set(s)
    if not rows:
        if not below_full:
            return x  # empty
        # D(anchor - 1): its top level and the one under it are full rows
        top_level, top, under = anchor - 1, FULL_ROW, FULL_ROW
    else:
        top_level, top = anchor + len(rows) - 1, rows[-1]
        under = rows[-2] if len(rows) > 1 else FULL_ROW if below_full else EMPTY_ROW
    # index 1 is off-pattern for every parameter
    under_one = under.off & 2
    top_one = top.off & 2
    out_top = _f_row_image(s, top)
    if under_one:
        out_top = row_union(s, out_top, pattern_row(s))
    out_above = pattern_row(s) if top_one else EMPTY_ROW
    return _make_set(s, True, False, top_level, (out_top, out_above))


@_memoized
def apply_g(x: SymbolicSet) -> SymbolicSet:
    s, below_full, above_full, anchor, rows = x
    if below_full:
        return full_set(s)
    if not rows:
        if not above_full:
            return x  # empty
        # U(anchor): its lowest level and the one over it are full rows
        low, over = FULL_ROW, FULL_ROW
    else:
        low = rows[0]
        over = rows[1] if len(rows) > 1 else FULL_ROW if above_full else EMPTY_ROW
    out_low = _g_row_image(s, low)
    if row_meets_pattern(s, over):
        out_low = row_union(s, out_low, INDEX_ONE_ROW)
    out_below = INDEX_ONE_ROW if row_meets_pattern(s, low) else EMPTY_ROW
    return _make_set(s, False, True, anchor - 1, (out_below, out_low))


# ---------------------------------------------------------------------------
# decomposition and the clause-table path


_KIND_RANK = {"D": 0, "A": 1, "V": 2, "S": 3, "Sbar": 4, "U": 5}


def _basis_sort_key(b: BasisSet):
    group = 0 if b.kind == "D" else 2 if b.kind == "U" else 1
    return (group, b.level, _KIND_RANK[b.kind], b.index or 0)


def decompose_to_basis(x: SymbolicSet) -> tuple[BasisSet, ...]:
    """Basis sets whose union is exactly x, in canonical order."""
    s = x.sparam
    parts: list[BasisSet] = []
    if x.below_full:
        parts.append(BasisSet("D", x.anchor - 1))
    for offset, row in enumerate(x.rows):
        p = x.anchor + offset
        on, off = row
        # the members below start are atoms; from start on, the tails
        start = _row_start(row)
        pat = s.pattern_mask(start) if (on ^ off) < 0 else 0
        for n in iter_bits(_row_bits(row, pat, start)):
            parts.append(BasisSet("A", p, n))
        if on < 0 and off < 0:
            if start == 1:
                parts.append(BasisSet("V", p))
            else:
                parts.append(BasisSet("S", p, start))
                if s.off_pattern_min(start) is not None:
                    parts.append(BasisSet("Sbar", p, start))
        elif on < 0:
            parts.append(BasisSet("S", p, start))
        elif off < 0:
            if start == 1:
                # the off-pattern tail from 1 contains index 1, which the
                # Sbar basis sets exclude
                parts.append(BasisSet("A", p, 1))
                parts.append(BasisSet("Sbar", p, 2))
            else:
                parts.append(BasisSet("Sbar", p, start))
    if x.above_full:
        parts.append(BasisSet("U", x.anchor + len(x.rows)))
    return tuple(sorted(parts, key=_basis_sort_key))


# The clause images are memoized per basis set: the table path stays its own
# code, independent of the rule path, and keeps only its own results.


@_memoized
def _clause_f(s: SParameter, b: BasisSet) -> SymbolicSet:
    p, m = b.level, b.index
    if b.kind == "A":
        if m == 1:
            return union_all(
                s, [basis_a(s, p, 1), basis_a(s, p, 2), basis_d(s, p - 1), basis_srow(s, p + 1, 1)]
            )
        parts = [basis_a(s, p, n) for n in range(1, m + 2)]
        return union_all(s, parts + [basis_d(s, p - 1)])
    if b.kind in ("D", "V"):
        return union(basis_d(s, p), basis_srow(s, p + 1, 1))
    if b.kind == "U":
        return full_set(s)
    if b.kind == "S":
        return basis_d(s, p)
    listed, infinite = s.off_pattern_from(max(m, 2))  # Sbar excludes index 1
    if infinite:
        return basis_d(s, p)
    if not listed:
        return empty_set(s)
    parts = [basis_a(s, p, n) for n in range(1, max(listed) + 2)]
    return union_all(s, parts + [basis_d(s, p - 1)])


@_memoized
def _clause_g(s: SParameter, b: BasisSet) -> SymbolicSet:
    p, m = b.level, b.index
    if b.kind == "A":
        if m == 1:
            return basis_u(s, p)
        if m == 2:
            return union(basis_a(s, p - 1, 1), basis_u(s, p))
        out = union_all(
            s, [basis_u(s, p + 1), basis_srow(s, p, m - 1), basis_sbar(s, p, m - 1)]
        )
        if s.in_pattern(m):
            out = union(out, basis_a(s, p - 1, 1))
        return out
    if b.kind in ("U", "V"):
        return union(basis_a(s, p - 1, 1), basis_u(s, p))
    if b.kind == "D":
        return full_set(s)
    if b.kind == "S":
        t = s.pattern_min(m)
        if t <= 2:
            return union(basis_a(s, p - 1, 1), basis_u(s, p))
        return union_all(
            s,
            [
                basis_a(s, p - 1, 1),
                basis_u(s, p + 1),
                basis_srow(s, p, t - 1),
                basis_sbar(s, p, t - 1),
            ],
        )
    mn = s.off_pattern_min(max(m, 2))
    if mn is None:
        return empty_set(s)
    return union_all(
        s, [basis_srow(s, p, mn - 1), basis_sbar(s, p, mn - 1), basis_u(s, p + 1)]
    )


def apply_f_table(x: SymbolicSet) -> SymbolicSet:
    s = x.sparam
    return union_all(s, (_clause_f(s, b) for b in decompose_to_basis(x)))


def apply_g_table(x: SymbolicSet) -> SymbolicSet:
    s = x.sparam
    return union_all(s, (_clause_g(s, b) for b in decompose_to_basis(x)))


# ---------------------------------------------------------------------------
# cardinality, extrema, shift, restriction


@dataclass(frozen=True)
class Cardinality:
    """Finite count or infinite (count None)."""

    count: int | None

    @property
    def is_finite(self) -> bool:
        return self.count is not None

    def __str__(self) -> str:
        return "infinite" if self.count is None else str(self.count)


INFINITE = Cardinality(None)


def cardinality(x: SymbolicSet) -> Cardinality:
    if x.below_full or x.above_full:
        return INFINITE
    total = 0
    for row in x.rows:
        n = row_count(row)
        if n is None:
            return INFINITE
        total += n
    return Cardinality(total)


@dataclass(frozen=True)
class LevelExtent:
    """Extent of a set's levels: empty set, unbounded, or a concrete level."""

    kind: str  # "empty" | "unbounded" | "level"
    level: int | None = None


NO_LEVELS = LevelExtent("empty")
UNBOUNDED = LevelExtent("unbounded")


def max_level(x: SymbolicSet) -> LevelExtent:
    if is_empty(x):
        return NO_LEVELS
    if x.above_full:
        return UNBOUNDED
    if x.rows:
        return LevelExtent("level", x.anchor + len(x.rows) - 1)
    return LevelExtent("level", x.anchor - 1)  # below_full, transition at anchor


def shift(x: SymbolicSet, delta: int) -> SymbolicSet:
    """Relabel every vertex (p, m) to (p + delta, m)."""
    if not x.rows and x.below_full == x.above_full:
        return x  # constant sets are level-invariant
    return SymbolicSet(x.sparam, x.below_full, x.above_full, x.anchor + delta, x.rows)


def window_mask(x: SymbolicSet, spec: TruncationSpec) -> int:
    """Members inside the window as a mask: bit i for ``spec.vertices()[i]``.

    Level p holds the ``index_max`` bits from (p - level_lo) * index_max.
    The window's levels below the rows are all full or all empty, and so are
    those past the rows, so each of the two runs is one block of bits; only
    the rows inside the window are read index by index."""
    width, lo, end = spec.index_max, spec.level_lo, spec.level_hi + 1
    rows_lo = min(max(x.anchor, lo), end)
    rows_end = max(min(x.anchor + len(x.rows), end), rows_lo)
    out = (1 << (rows_lo - lo) * width) - 1 if x.below_full else 0
    if x.above_full:
        out |= ((1 << (end - rows_end) * width) - 1) << (rows_end - lo) * width
    if rows_end > rows_lo:
        pat = x.sparam.pattern_mask(width + 1)
        for p in range(rows_lo, rows_end):
            out |= _row_bits(x.rows[p - x.anchor], pat, width + 1) >> 1 << (p - lo) * width
    return out


def restrict_to_window(x: SymbolicSet, spec: TruncationSpec) -> tuple[VertexId, ...]:
    """Members inside the window, in canonical order."""
    width = spec.index_max
    return tuple(
        VertexId(spec.level_lo + i // width, i % width + 1)
        for i in iter_bits(window_mask(x, spec))
    )


# ---------------------------------------------------------------------------
# display syntax


def display(x: SymbolicSet) -> str:
    parts = decompose_to_basis(x)
    if not parts:
        return "0"
    return " + ".join(str(b) for b in parts)


_BASIS_RE = re.compile(r"^(A|Sbar|S|D|U|V)\(\s*(-?\d+)\s*(?:,\s*(\d+)\s*)?\)$")


def parse_set(s: SParameter, text: str) -> SymbolicSet:
    """Parse the display syntax (any order of basis terms); '0' is empty."""
    body = text.strip()
    if body in ("0", "empty"):
        return empty_set(s)
    out = empty_set(s)
    for chunk in body.split("+"):
        token = chunk.strip()
        match = _BASIS_RE.match(token)
        if match is None:
            raise ValueError(f"cannot parse basis term {token!r}")
        kind, level, index = match.group(1), int(match.group(2)), match.group(3)
        b = BasisSet(kind, level, int(index) if index is not None else None)
        out = union(out, basis(s, b))
    return out


# ---------------------------------------------------------------------------
# canonical-form validation


def validate_canonical(x: SymbolicSet) -> bool:
    """Assert the structural invariants of the canonical form."""
    s = x.sparam
    below_row = FULL_ROW if x.below_full else EMPTY_ROW
    above_row = FULL_ROW if x.above_full else EMPTY_ROW
    if x.rows:
        if x.rows[0] == below_row or x.rows[-1] == above_row:
            raise ValueError("window not minimal")
    elif x.below_full == x.above_full and x.anchor != 0:
        raise ValueError("constant set must have anchor 0")
    for on, off in x.rows:
        # each int's bits that differ from its sign lie in its own class
        on_diff, off_diff = on ^ -(on < 0), off ^ -(off < 0)
        pat = s.pattern_mask(max(on_diff.bit_length(), off_diff.bit_length()))
        if on_diff & ~pat:
            raise ValueError(f"pattern part {on} has a bit outside the pattern")
        if off_diff & (pat | 1):
            raise ValueError(f"off-pattern part {off} has a bit in the pattern or at 0")
        if s.tail_in and (on < 0) != (off < 0):
            raise ValueError("the two parts differ in sign under an all-in tail")
    return True
